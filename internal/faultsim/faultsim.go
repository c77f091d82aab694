// Package faultsim turns a party Byzantine. It wraps the party's
// wire.Transport with composable attack behaviors — equivocation, payload
// mutation, replay, duplication, selective silence, and buffer flooding —
// so the full protocol stack can be exercised against the corrupted-party
// model of the paper (§2) rather than mere crash faults.
//
// The wrapper sits below the router: the corrupted party still runs the
// honest protocol code, but everything it puts on the wire passes through
// the behavior pipeline first. This models a real intrusion more closely
// than bespoke attack scripts — the adversary controls the channel, and
// honest parties must survive whatever arrives. Channel authentication is
// preserved by construction: the underlying transport stamps the sender
// index on every envelope, so even replayed third-party messages appear as
// traffic from the corrupted party, exactly as authenticated point-to-point
// links guarantee.
//
// All behaviors draw randomness from one seeded source per party, so chaos
// runs are reproducible.
package faultsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"sintra/internal/obs"
	"sintra/internal/wire"
)

// historySize bounds the per-party ring of observed messages available to
// the replay behavior.
const historySize = 512

// Context is the per-party state a behavior draws on. Behaviors run under
// the party's lock, one outbound message at a time, so they may use the
// context without further synchronization.
type Context struct {
	// Self is the corrupted party's index.
	Self int
	// N is the number of servers.
	N int
	// Rand is the party's seeded randomness source.
	Rand *rand.Rand

	p *Party
}

// Observed returns the messages this party has seen so far — its own sends
// and everything received — oldest first. The slice is shared; treat it as
// read-only.
func (c *Context) Observed() []wire.Message { return c.p.history }

// NextSeq returns a fresh per-party sequence number, used to mint instance
// names that have never existed.
func (c *Context) NextSeq() int64 {
	c.p.seq++
	return c.p.seq
}

// Behavior rewrites one outbound message into the messages actually put on
// the wire: zero (silence), one (possibly altered), or several (injection).
type Behavior interface {
	// Name labels the behavior in metrics and test output.
	Name() string
	// Apply rewrites one outbound message. Returning the input unchanged
	// means the behavior passes this message through.
	Apply(ctx *Context, m wire.Message) []wire.Message
}

// Party wraps a wire.Transport with Byzantine behaviors. It implements
// wire.Transport itself, so it drops into any place a transport goes —
// the simulator deployment, the test cluster, the bench harness.
type Party struct {
	inner     wire.Transport
	behaviors []Behavior
	ctx       *Context

	mu      sync.Mutex
	history []wire.Message
	histPos int
	seq     int64

	// Observability (nil-safe when off).
	actions  *obs.CounterVec // faultsim.actions.<behavior>
	injected *obs.Counter    // faultsim.injected
	dropped  *obs.Counter    // faultsim.dropped
}

var _ wire.Transport = (*Party)(nil)

// Wrap corrupts the party behind inner with the given behaviors, applied
// in order: each behavior sees the output of the previous one. The seed
// makes every attack decision reproducible.
func Wrap(inner wire.Transport, seed int64, behaviors ...Behavior) *Party {
	p := &Party{inner: inner, behaviors: behaviors}
	p.ctx = &Context{
		Self: inner.Self(),
		N:    inner.N(),
		Rand: rand.New(rand.NewSource(seed)),
		p:    p,
	}
	return p
}

// SetObserver reports attack activity through reg: the counter vector
// "faultsim.actions.<behavior>" (times each behavior altered traffic),
// "faultsim.injected" (extra envelopes put on the wire), and
// "faultsim.dropped" (envelopes silently withheld). A nil registry turns
// observability off.
func (p *Party) SetObserver(reg *obs.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.actions = reg.CounterVec("faultsim.actions")
	p.injected = reg.Counter("faultsim.injected")
	p.dropped = reg.Counter("faultsim.dropped")
}

// Behaviors lists the attack names active on this party.
func (p *Party) Behaviors() []string {
	out := make([]string, len(p.behaviors))
	for i, b := range p.behaviors {
		out[i] = b.Name()
	}
	return out
}

// Self returns the corrupted party's index.
func (p *Party) Self() int { return p.inner.Self() }

// N returns the number of servers.
func (p *Party) N() int { return p.inner.N() }

// Close shuts the underlying transport down.
func (p *Party) Close() error { return p.inner.Close() }

// Recv passes inbound traffic through unchanged, recording it for the
// replay behavior.
func (p *Party) Recv() (wire.Message, bool) {
	m, ok := p.inner.Recv()
	if ok {
		p.mu.Lock()
		p.record(m)
		p.mu.Unlock()
	}
	return m, ok
}

// Send pushes the message through the behavior pipeline and sends whatever
// survives. The underlying transport re-stamps From on every envelope, so
// injected copies of other parties' messages are attributed to this party.
func (p *Party) Send(m wire.Message) {
	p.mu.Lock()
	defer p.mu.Unlock()
	msgs := []wire.Message{m}
	for _, b := range p.behaviors {
		var next []wire.Message
		acted := false
		for _, in := range msgs {
			out := b.Apply(p.ctx, in)
			if len(out) != 1 || !sameMessage(&out[0], &in) {
				acted = true
			}
			next = append(next, out...)
		}
		if acted {
			p.actions.With(b.Name()).Inc()
		}
		if d := len(next) - len(msgs); d > 0 {
			p.injected.Add(int64(d))
		} else if d < 0 {
			p.dropped.Add(int64(-d))
		}
		msgs = next
	}
	// Record after the pipeline so Observed() means strictly prior traffic.
	p.record(m)
	for i := range msgs {
		p.inner.Send(msgs[i])
	}
}

// record appends a message to the bounded observation ring.
func (p *Party) record(m wire.Message) {
	if len(p.history) < historySize {
		p.history = append(p.history, m)
		return
	}
	p.history[p.histPos] = m
	p.histPos = (p.histPos + 1) % historySize
}

// sameMessage reports whether two envelopes are identical, payload bytes
// included.
func sameMessage(a, b *wire.Message) bool {
	if a.To != b.To || a.Protocol != b.Protocol || a.Instance != b.Instance ||
		a.Type != b.Type || len(a.Payload) != len(b.Payload) {
		return false
	}
	for i := range a.Payload {
		if a.Payload[i] != b.Payload[i] {
			return false
		}
	}
	return true
}

// flipByte returns a copy of payload with one byte inverted at a position
// derived from the payload itself, so the same input always flips the same
// way (deterministic equivocation).
func flipByte(payload []byte) []byte {
	h := fnv.New32a()
	h.Write(payload)
	out := append([]byte(nil), payload...)
	out[int(h.Sum32())%len(out)] ^= 0xff
	return out
}

// ---------------------------------------------------------------------------
// Behaviors

// equivocate sends different payloads of the same (protocol, instance,
// type) to different recipients: odd-indexed recipients receive a
// deterministically corrupted copy, even-indexed ones the original.
type equivocate struct{}

// Equivocate makes the party two-faced: for every broadcast step, half the
// recipients see a different payload than the other half. Honest parties
// with an even index still receive consistent traffic, which is what lets
// quorum-based protocols survive the attack — and what the chaos suite
// verifies.
func Equivocate() Behavior { return equivocate{} }

func (equivocate) Name() string { return "equivocate" }

func (equivocate) Apply(ctx *Context, m wire.Message) []wire.Message {
	if len(m.Payload) == 0 || m.To%2 == 0 {
		return []wire.Message{m}
	}
	m.Payload = flipByte(m.Payload)
	return []wire.Message{m}
}

// mutate flips random payload bytes.
type mutate struct{ rate float64 }

// Mutate corrupts each outbound payload with the given probability by
// inverting one randomly chosen byte — garbage that usually fails to
// decode and must be absorbed by the router's malformed-input guard.
func Mutate(rate float64) Behavior { return mutate{rate: rate} }

func (mutate) Name() string { return "mutate" }

func (b mutate) Apply(ctx *Context, m wire.Message) []wire.Message {
	if len(m.Payload) > 0 && ctx.Rand.Float64() < b.rate {
		out := append([]byte(nil), m.Payload...)
		out[ctx.Rand.Intn(len(out))] ^= 0xff
		m.Payload = out
	}
	return []wire.Message{m}
}

// tamperTail flips one bit late in the payload.
type tamperTail struct{ rate float64 }

// TamperTail corrupts each outbound payload with the given probability by
// flipping a single bit in its final quarter — in a share burst, the last
// share's proof.
// Unlike Mutate's byte inversion anywhere (which usually breaks a length,
// count or 0/1 flag and fails to decode), a tail bit-flip tends to survive
// decoding: the recipient sees a structurally valid share whose proof is
// cryptographically wrong, the input a proof check must reject.
func TamperTail(rate float64) Behavior { return tamperTail{rate: rate} }

func (tamperTail) Name() string { return "tamper-tail" }

func (b tamperTail) Apply(ctx *Context, m wire.Message) []wire.Message {
	if len(m.Payload) == 0 || ctx.Rand.Float64() >= b.rate {
		return []wire.Message{m}
	}
	out := append([]byte(nil), m.Payload...)
	start := len(out) * 3 / 4
	out[start+ctx.Rand.Intn(len(out)-start)] ^= 0x01
	m.Payload = out
	return []wire.Message{m}
}

// replay re-sends previously observed messages.
type replay struct{ rate float64 }

// Replay makes the party re-send, with the given probability per outbound
// message, a message it observed earlier — its own or another party's —
// retargeted at the current recipient. The transport's sender stamp means
// the copy arrives attributed to the corrupted party, as channel
// authentication dictates.
func Replay(rate float64) Behavior { return replay{rate: rate} }

func (replay) Name() string { return "replay" }

func (b replay) Apply(ctx *Context, m wire.Message) []wire.Message {
	out := []wire.Message{m}
	if hist := ctx.Observed(); len(hist) > 0 && ctx.Rand.Float64() < b.rate {
		old := hist[ctx.Rand.Intn(len(hist))]
		old.To = m.To
		out = append(out, old)
	}
	return out
}

// duplicate sends extra identical copies.
type duplicate struct{ copies int }

// Duplicate sends the given number of extra identical copies of every
// outbound message, probing idempotence of protocol handlers.
func Duplicate(copies int) Behavior { return duplicate{copies: copies} }

func (duplicate) Name() string { return "duplicate" }

func (b duplicate) Apply(ctx *Context, m wire.Message) []wire.Message {
	out := make([]wire.Message, 1+b.copies)
	for i := range out {
		out[i] = m
	}
	return out
}

// drop withholds outbound messages.
type drop struct {
	rate float64
	to   map[int]bool // nil means every recipient
}

// Drop silences the party's outbound traffic with the given probability.
// Drop(1) is a full crash of the sending side while Recv keeps running —
// a "zombie" replica that listens but never answers.
func Drop(rate float64) Behavior { return drop{rate: rate} }

// DropTo silences only traffic to the given recipients, modelling targeted
// denial: the victim sees the party as crashed while everyone else sees it
// as live.
func DropTo(rate float64, to ...int) Behavior {
	victims := make(map[int]bool, len(to))
	for _, id := range to {
		victims[id] = true
	}
	return drop{rate: rate, to: victims}
}

func (drop) Name() string { return "drop" }

func (b drop) Apply(ctx *Context, m wire.Message) []wire.Message {
	if b.to != nil && !b.to[m.To] {
		return []wire.Message{m}
	}
	if ctx.Rand.Float64() < b.rate {
		return nil
	}
	return []wire.Message{m}
}

// flood injects fresh-instance junk alongside real traffic.
type flood struct{ burst int }

// Flood attaches a burst of junk envelopes to every outbound message, each
// aimed at a fresh instance name and an unknown message type — the
// buffer-exhaustion attack the router's per-sender quotas exist to stop.
func Flood(burst int) Behavior { return flood{burst: burst} }

func (flood) Name() string { return "flood" }

func (b flood) Apply(ctx *Context, m wire.Message) []wire.Message {
	out := []wire.Message{m}
	for i := 0; i < b.burst; i++ {
		out = append(out, wire.Message{
			To:       ctx.Rand.Intn(ctx.N),
			Protocol: m.Protocol,
			Instance: fmt.Sprintf("flood-%d-%d", ctx.Self, ctx.NextSeq()),
			Type:     "JUNK",
			Payload:  []byte{0xff, 0x00, 0xff},
		})
	}
	return out
}
