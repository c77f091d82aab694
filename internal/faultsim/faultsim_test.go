package faultsim_test

import (
	"bytes"
	"fmt"
	"testing"

	"sintra/internal/faultsim"
	"sintra/internal/obs"
	"sintra/internal/wire"
)

// capture is a wire.Transport that records sends and serves a scripted
// inbox, mimicking the netsim endpoint's From-stamping.
type capture struct {
	self, n int
	sent    []wire.Message
	inbox   []wire.Message
}

func (c *capture) Self() int { return c.self }
func (c *capture) N() int    { return c.n }
func (c *capture) Send(m wire.Message) {
	m.From = c.self
	c.sent = append(c.sent, m)
}
func (c *capture) Recv() (wire.Message, bool) {
	if len(c.inbox) == 0 {
		return wire.Message{}, false
	}
	m := c.inbox[0]
	c.inbox = c.inbox[1:]
	return m, true
}
func (c *capture) Close() error { return nil }

func msg(to int, payload []byte) wire.Message {
	return wire.Message{To: to, Protocol: "p", Instance: "i", Type: "T", Payload: payload}
}

func TestEquivocateSplitsRecipients(t *testing.T) {
	inner := &capture{self: 0, n: 4}
	p := faultsim.Wrap(inner, 1, faultsim.Equivocate())
	payload := []byte{1, 2, 3, 4}
	for to := 0; to < 4; to++ {
		p.Send(msg(to, payload))
	}
	if len(inner.sent) != 4 {
		t.Fatalf("sent %d messages, want 4", len(inner.sent))
	}
	for _, m := range inner.sent {
		same := bytes.Equal(m.Payload, payload)
		if m.To%2 == 0 && !same {
			t.Fatalf("even recipient %d got altered payload %x", m.To, m.Payload)
		}
		if m.To%2 == 1 && same {
			t.Fatalf("odd recipient %d got the original payload", m.To)
		}
		if m.Protocol != "p" || m.Instance != "i" || m.Type != "T" {
			t.Fatalf("equivocation changed the envelope: %v", m.String())
		}
	}
	// The two faces must themselves be consistent: both odd recipients see
	// the SAME altered payload — equivocation, not noise.
	if !bytes.Equal(inner.sent[1].Payload, inner.sent[3].Payload) {
		t.Fatal("odd recipients disagree with each other")
	}
}

func TestMutateIsSeededAndDeterministic(t *testing.T) {
	run := func(seed int64) []wire.Message {
		inner := &capture{self: 0, n: 4}
		p := faultsim.Wrap(inner, seed, faultsim.Mutate(0.5))
		for k := 0; k < 32; k++ {
			p.Send(msg(k%4, []byte{byte(k), 1, 2, 3}))
		}
		return inner.sent
	}
	a, b := run(7), run(7)
	for i := range a {
		if !bytes.Equal(a[i].Payload, b[i].Payload) {
			t.Fatalf("same seed diverged at message %d", i)
		}
	}
	mutated := 0
	for k, m := range a {
		if !bytes.Equal(m.Payload, []byte{byte(k), 1, 2, 3}) {
			mutated++
		}
	}
	if mutated == 0 || mutated == len(a) {
		t.Fatalf("mutated %d/%d at rate 0.5 — rate not applied", mutated, len(a))
	}
}

func TestReplayResendsObserved(t *testing.T) {
	inner := &capture{self: 0, n: 4, inbox: []wire.Message{
		{From: 2, To: 0, Protocol: "rbc", Instance: "x", Type: "ECHO", Payload: []byte{9}},
	}}
	p := faultsim.Wrap(inner, 3, faultsim.Replay(1))
	if _, ok := p.Recv(); !ok {
		t.Fatal("recv failed")
	}
	p.Send(msg(1, []byte{1}))
	if len(inner.sent) != 2 {
		t.Fatalf("sent %d messages, want original + replay", len(inner.sent))
	}
	rep := inner.sent[1]
	if rep.To != 1 {
		t.Fatalf("replay not retargeted: To = %d", rep.To)
	}
	if rep.From != 0 {
		t.Fatalf("replay forged sender %d — transport must re-stamp From", rep.From)
	}
	if rep.Protocol != "rbc" || rep.Type != "ECHO" || !bytes.Equal(rep.Payload, []byte{9}) {
		t.Fatalf("replayed wrong message: %s", rep.String())
	}
}

func TestDuplicateSendsCopies(t *testing.T) {
	inner := &capture{self: 0, n: 4}
	p := faultsim.Wrap(inner, 1, faultsim.Duplicate(2))
	p.Send(msg(1, []byte{5}))
	if len(inner.sent) != 3 {
		t.Fatalf("sent %d, want 3 identical copies", len(inner.sent))
	}
	for _, m := range inner.sent {
		if m.To != 1 || !bytes.Equal(m.Payload, []byte{5}) {
			t.Fatalf("duplicate altered the message: %s", m.String())
		}
	}
}

func TestDropAndDropTo(t *testing.T) {
	inner := &capture{self: 0, n: 4}
	p := faultsim.Wrap(inner, 1, faultsim.Drop(1))
	for to := 0; to < 4; to++ {
		p.Send(msg(to, []byte{1}))
	}
	// Only the party's message to itself, which no intruder sees, passes.
	if len(inner.sent) != 1 || inner.sent[0].To != 0 {
		t.Fatalf("Drop(1) let %d messages through, want only the loopback", len(inner.sent))
	}

	inner = &capture{self: 0, n: 4}
	p = faultsim.Wrap(inner, 1, faultsim.DropTo(1, 2))
	for to := 0; to < 4; to++ {
		p.Send(msg(to, []byte{1}))
	}
	if len(inner.sent) != 3 {
		t.Fatalf("DropTo silenced %d recipients, want only party 2", 4-len(inner.sent))
	}
	for _, m := range inner.sent {
		if m.To == 2 {
			t.Fatal("victim 2 still received a message")
		}
	}
}

func TestFloodMintsFreshInstances(t *testing.T) {
	inner := &capture{self: 3, n: 4}
	p := faultsim.Wrap(inner, 1, faultsim.Flood(3))
	p.Send(msg(1, []byte{1}))
	p.Send(msg(2, []byte{2}))
	if len(inner.sent) != 8 {
		t.Fatalf("sent %d, want 2 real + 6 junk", len(inner.sent))
	}
	seen := map[string]bool{}
	junk := 0
	for _, m := range inner.sent {
		if m.Instance == "i" {
			continue
		}
		junk++
		if m.Type != "JUNK" {
			t.Fatalf("flood used known type %q", m.Type)
		}
		if seen[m.Instance] {
			t.Fatalf("flood reused instance %q", m.Instance)
		}
		seen[m.Instance] = true
	}
	if junk != 6 {
		t.Fatalf("junk messages = %d, want 6", junk)
	}
}

func TestBehaviorsCompose(t *testing.T) {
	// Duplicate then equivocate: three copies, each equivocated per its
	// recipient — the pipeline order is the declaration order.
	inner := &capture{self: 0, n: 4}
	p := faultsim.Wrap(inner, 1, faultsim.Duplicate(2), faultsim.Equivocate())
	p.Send(msg(1, []byte{1, 2, 3}))
	if len(inner.sent) != 3 {
		t.Fatalf("sent %d, want 3", len(inner.sent))
	}
	for _, m := range inner.sent {
		if bytes.Equal(m.Payload, []byte{1, 2, 3}) {
			t.Fatal("odd recipient saw the original payload through the pipeline")
		}
	}
}

func TestAttackMetrics(t *testing.T) {
	inner := &capture{self: 0, n: 4}
	reg := obs.NewRegistry()
	p := faultsim.Wrap(inner, 1, faultsim.Duplicate(1), faultsim.DropTo(1, 2))
	p.SetObserver(reg)
	p.Send(msg(1, nil)) // duplicated, not dropped
	p.Send(msg(2, nil)) // duplicated, both copies dropped
	snap := reg.Snapshot()
	if n := snap.Counter("faultsim.actions.duplicate"); n != 2 {
		t.Fatalf("actions.duplicate = %d, want 2", n)
	}
	if n := snap.Counter("faultsim.actions.drop"); n != 1 {
		t.Fatalf("actions.drop = %d, want 1", n)
	}
	if n := snap.Counter("faultsim.injected"); n != 2 {
		t.Fatalf("faultsim.injected = %d, want 2", n)
	}
	if n := snap.Counter("faultsim.dropped"); n != 2 {
		t.Fatalf("faultsim.dropped = %d, want 2", n)
	}
	if got := fmt.Sprint(p.Behaviors()); got != "[duplicate drop]" {
		t.Fatalf("Behaviors() = %s", got)
	}
}

// TestLoopbackUntouched: a party that garbles, duplicates and drops
// everything it sends still hands its messages to itself unchanged and
// once, as an intruder on its network interface never sees them; the
// attack counters count only what went to other parties.
func TestLoopbackUntouched(t *testing.T) {
	inner := &capture{self: 2, n: 4}
	reg := obs.NewRegistry()
	p := faultsim.Wrap(inner, 1, faultsim.Mutate(1), faultsim.TamperTail(1), faultsim.Duplicate(1))
	p.SetObserver(reg)
	for i := 0; i < 20; i++ {
		p.Send(msg(2, []byte{1, 2, 3, byte(i)}))
	}
	if len(inner.sent) != 20 {
		t.Fatalf("sent %d loopback messages, want 20", len(inner.sent))
	}
	for i, m := range inner.sent {
		if m.To != 2 || !bytes.Equal(m.Payload, []byte{1, 2, 3, byte(i)}) {
			t.Fatalf("loopback %d altered: to %d payload %x", i, m.To, m.Payload)
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counter("faultsim.actions.mutate") + snap.Counter("faultsim.injected"); n != 0 {
		t.Fatalf("loopback traffic counted as %d attack actions", n)
	}
	// The same pipeline does garble what goes to another party.
	p.Send(msg(1, []byte{1, 2, 3}))
	if len(inner.sent) != 22 || bytes.Equal(inner.sent[20].Payload, []byte{1, 2, 3}) {
		t.Fatal("message to another party passed the pipeline unaltered")
	}
}
