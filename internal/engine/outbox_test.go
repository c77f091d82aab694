package engine_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/wire"
)

// tapTransport is party 0 of 3: it records what the router hands it and
// feeds the router what the test injects.
type tapTransport struct {
	mu   sync.Mutex
	sent []wire.Message
	in   chan wire.Message
	once sync.Once
}

func newTap() *tapTransport { return &tapTransport{in: make(chan wire.Message, 16)} }

func (t *tapTransport) Self() int { return 0 }
func (t *tapTransport) N() int    { return 3 }
func (t *tapTransport) Send(m wire.Message) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sent = append(t.sent, m)
}
func (t *tapTransport) Recv() (wire.Message, bool) { m, ok := <-t.in; return m, ok }
func (t *tapTransport) Close() error               { t.once.Do(func() { close(t.in) }); return nil }

func (t *tapTransport) seen() []wire.Message {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]wire.Message(nil), t.sent...)
}

// brief renders messages as "TYPE>to" for failure output.
func brief(msgs []wire.Message) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = fmt.Sprintf("%s>%d", m.Type, m.To)
	}
	return out
}

// handJournal is a Journal whose durable mark moves only when the test
// moves it.
type handJournal struct {
	mu                sync.Mutex
	appended, durable uint64
	changed           chan struct{}
	err               error
	ledger            map[string][]byte
	polls             int
}

func newHandJournal() *handJournal {
	return &handJournal{changed: make(chan struct{}), ledger: make(map[string][]byte)}
}

func (j *handJournal) RecordOutbound(protocol, instance, msgType, slot string, payload []byte) ([]byte, bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	key := protocol + "|" + instance + "|" + slot
	if first, ok := j.ledger[key]; ok {
		return first, true, nil
	}
	if j.err != nil {
		return nil, false, j.err
	}
	j.ledger[key] = payload
	j.appended++
	return payload, false, nil
}

func (j *handJournal) Progress() (uint64, uint64, <-chan struct{}, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.polls++
	return j.appended, j.durable, j.changed, j.err
}

// move sets the durable mark and the failure, and wakes the watchers.
func (j *handJournal) move(durable uint64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.durable, j.err = durable, err
	close(j.changed)
	j.changed = make(chan struct{})
}

// settle returns once the releaser has completed a full pass over the
// outbox under the journal's current marks: each wake-up makes it read
// Progress once, so after the second read the first pass — transmissions
// included — is over.
func (j *handJournal) settle(t *testing.T) {
	t.Helper()
	for i := 0; i < 2; i++ {
		j.mu.Lock()
		before, durable, err := j.polls, j.durable, j.err
		j.mu.Unlock()
		j.move(durable, err)
		deadline := time.Now().Add(5 * time.Second)
		for {
			j.mu.Lock()
			polls := j.polls
			j.mu.Unlock()
			if polls > before {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("releaser never looked at the journal")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// gatedRouter runs a router on a tapTransport behind a handJournal.
func gatedRouter(t *testing.T) (*engine.Router, *tapTransport, *handJournal, *obs.Registry, func()) {
	t.Helper()
	tr, j, reg := newTap(), newHandJournal(), obs.NewRegistry()
	r := engine.NewRouter(tr)
	r.SetObserver(reg)
	r.SetJournal(j)
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		r.Run()
	}()
	stop := func() {
		tr.Close()
		<-ran
	}
	t.Cleanup(stop)
	return r, tr, j, reg, stop
}

type note struct{ Text string }

func text(t *testing.T, m wire.Message) string {
	t.Helper()
	var n note
	if err := wire.UnmarshalBody(m.Payload, &n); err != nil {
		t.Fatal(err)
	}
	return n.Text
}

// TestOutboxHoldsEverythingUntilDurable: a journaled message, a plain
// message sent after it and an answer to a client all wait for the
// journaled record's commit, and leave in send order.
func TestOutboxHoldsEverythingUntilDurable(t *testing.T) {
	r, tr, j, _, _ := gatedRouter(t)

	// Nothing appended yet: the send path is the inline one.
	if err := r.Send(1, "p", "i", "HELLO", note{"inline"}); err != nil {
		t.Fatal(err)
	}
	if got := tr.seen(); len(got) != 1 || got[0].Type != "HELLO" {
		t.Fatalf("send with nothing undurable ahead was not handed over inline: %v", brief(got))
	}

	r.DoSync(func() {
		_ = r.SendJournaled("vote/1", 1, "p", "i", "VOTE", note{"vote"})
		_ = r.Send(2, "p", "i", "HINT", note{"plain"})
		_ = r.Send(7, "client", "svc", "RESPONSE", note{"answer"})
	})
	j.settle(t)
	if got := tr.seen(); len(got) != 1 {
		t.Fatalf("%d messages left the replica before their record was durable: %v", len(got)-1, brief(got[1:]))
	}
	j.move(1, nil)
	j.settle(t)
	got := tr.seen()[1:]
	want := []string{"VOTE", "HINT", "RESPONSE"}
	if len(got) != len(want) {
		t.Fatalf("released %d messages, want %d", len(got), len(want))
	}
	for i, m := range got {
		if m.Type != want[i] {
			t.Fatalf("release order %v, want %v", brief(got), want)
		}
	}

	// Durable again: back to the inline path.
	_ = r.Send(1, "p", "i", "BYE", note{"inline"})
	if got := tr.seen(); got[len(got)-1].Type != "BYE" {
		t.Fatal("send after the outbox drained was not handed over inline")
	}
}

// TestOutboxKeepsDispatching tells an outbox from a faster fsync: with
// durability withheld for good, the router still applies every inbound
// message (each of which journals a broadcast of its own).
func TestOutboxKeepsDispatching(t *testing.T) {
	r, tr, j, _, _ := gatedRouter(t)
	handled := make(chan string, 8)
	r.DoSync(func() {
		r.Register("p", "i", func(from int, msgType string, payload []byte) {
			_ = r.BroadcastJournaled("echo/"+msgType, "p", "i", "ECHO-"+msgType, note{msgType})
			handled <- msgType
		})
	})
	for _, typ := range []string{"A", "B", "C"} {
		tr.in <- wire.Message{From: 1, To: 0, Protocol: "p", Instance: "i", Type: typ}
	}
	for _, want := range []string{"A", "B", "C"} {
		select {
		case got := <-handled:
			if got != want {
				t.Fatalf("applied %s, want %s", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("dispatch stalled behind an undurable record before %s", want)
		}
	}
	j.settle(t)
	if got := tr.seen(); len(got) != 0 {
		t.Fatalf("undurable broadcasts reached the transport: %v", brief(got))
	}
	j.move(2, nil) // the first two records only
	j.settle(t)
	got := tr.seen()
	if len(got) != 2*tr.N() {
		t.Fatalf("released %d messages, want the first two broadcasts (%d)", len(got), 2*tr.N())
	}
	for i, m := range got {
		if want := []string{"ECHO-A", "ECHO-B"}[i/tr.N()]; m.Type != want || m.To != i%tr.N() {
			t.Fatalf("message %d is %s to %d, want %s to %d", i, m.Type, m.To, want, i%tr.N())
		}
	}
}

// TestOutboxWedgeDiscards: a failed journal turns the replica mute —
// the queue is discarded and counted, and so is whatever follows.
func TestOutboxWedgeDiscards(t *testing.T) {
	r, tr, j, reg, _ := gatedRouter(t)
	r.DoSync(func() {
		_ = r.BroadcastJournaled("vote/1", "p", "i", "VOTE", note{"vote"})
		_ = r.Send(1, "p", "i", "HINT", note{"plain"})
	})
	boom := errors.New("disk on fire")
	j.move(0, boom)
	j.settle(t)
	if err := r.Send(1, "p", "i", "LATER", note{"plain"}); err != nil {
		t.Fatal(err)
	}
	if err := r.SendJournaled("vote/2", 1, "p", "i", "VOTE", note{"vote"}); !errors.Is(err, boom) {
		t.Fatalf("journaled send on a failed journal returned %v", err)
	}
	if got := tr.seen(); len(got) != 0 {
		t.Fatalf("a replica with a failed journal transmitted %v", brief(got))
	}
	if n := reg.Snapshot().Counter("wal.dropped"); n != 4 {
		t.Fatalf("wal.dropped = %d, want 4 (two queued, two refused)", n)
	}
}

// TestOutboxRefillRepeatsFirstBytes: a slot filled twice in one run sends
// the first fill's bytes both times, even though the first fill is not
// durable yet when the second arrives — and both wait for it.
func TestOutboxRefillRepeatsFirstBytes(t *testing.T) {
	r, tr, j, reg, _ := gatedRouter(t)
	r.DoSync(func() {
		_ = r.SendJournaled("vote/1", 1, "p", "i", "VOTE", note{"first"})
		_ = r.SendJournaled("vote/1", 2, "p", "i", "VOTE", note{"second thoughts"})
	})
	j.settle(t)
	if got := tr.seen(); len(got) != 0 {
		t.Fatalf("refill overtook its undurable first fill: %v", brief(got))
	}
	j.move(1, nil)
	j.settle(t)
	got := tr.seen()
	if len(got) != 2 || got[0].To != 1 || got[1].To != 2 {
		t.Fatalf("released %v, want the vote to 1 then to 2", brief(got))
	}
	for _, m := range got {
		if s := text(t, m); s != "first" {
			t.Fatalf("slot vote/1 transmitted %q to %d, want the first fill", s, m.To)
		}
	}
	snap := reg.Snapshot()
	if snap.Counter("wal.records") != 1 || snap.Counter("wal.replayed") != 1 {
		t.Fatalf("wal.records=%d wal.replayed=%d, want 1 and 1", snap.Counter("wal.records"), snap.Counter("wal.replayed"))
	}
}

// TestOutboxDroppedOnShutdown: what is still gated when the router stops
// is dropped; a commit that completes afterwards (the journal's Close
// does one) must not flush a dead replica's messages.
func TestOutboxDroppedOnShutdown(t *testing.T) {
	r, tr, j, _, stop := gatedRouter(t)
	r.DoSync(func() {
		for i := 0; i < 3; i++ {
			_ = r.BroadcastJournaled(fmt.Sprint("vote/", i), "p", "i", "VOTE", note{"vote"})
		}
	})
	stop()
	j.move(3, nil)
	if got := tr.seen(); len(got) != 0 {
		t.Fatalf("stopped router transmitted %v", brief(got))
	}
}
