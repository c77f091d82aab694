// Package engine provides the per-party protocol runtime: a Router that
// multiplexes one transport among many protocol instances.
//
// Every protocol execution (one reliable broadcast, one binary agreement,
// one atomic-broadcast round, ...) is addressed by (protocol, instance).
// All protocol code of one party — message handlers, buffered-message
// replay, instance construction, and cross-instance callbacks (a binary
// agreement deciding into its parent multi-valued agreement, for example)
// — executes on a single dispatch goroutine, so protocol instances are
// plain single-threaded state machines with no internal locking. Outbound
// sends go through the thread-safe transport.
//
// There is one kind of handler: it decodes, checks and applies a message
// on the dispatch goroutine, so a protocol asks whether its state still
// needs a message before it spends a proof or signature check on it.
//
// External goroutines (clients, tests) interact with protocol state only
// through Do/DoSync, which run a closure on the dispatch goroutine.
// Messages that arrive before their instance is registered are buffered
// and replayed on registration, which is essential in an asynchronous
// network where a fast party's messages may overtake the event that
// creates the instance locally.
package engine

import (
	"fmt"
	"sync"
	"time"

	"sintra/internal/obs"
	"sintra/internal/wire"
)

// maxBufferedPerInstance bounds the early-arrival buffer of one instance.
// Honest traffic never comes close: it exists to stop corrupted parties
// from exhausting memory with messages for instances that never start.
//
// The budget is split into per-sender quotas (maxBufferedPerInstance / n),
// so one flooding party exhausts only its own share and cannot evict
// honest parties' buffered messages. A sender over quota loses its own
// oldest message; a sender over the instance total (possible only with
// more distinct sender ids than servers, e.g. forged client ids) evicts
// from whichever sender holds the most.
const maxBufferedPerInstance = 4096

// maxBufferedPerSenderTotal bounds one sender's buffered messages across
// ALL unregistered instances of the router, so a corrupted party cannot
// sidestep the per-instance quota by spamming fresh instance names.
const maxBufferedPerSenderTotal = 4 * maxBufferedPerInstance

// Handler processes one inbound message of an instance, on the dispatch
// goroutine.
type Handler func(from int, msgType string, payload []byte)

// Factory creates a handler on demand for an instance that receives its
// first message before being registered explicitly. Factories run on the
// dispatch goroutine; the router registers the returned handler itself.
type Factory func(instance string) Handler

type instanceKey struct {
	protocol string
	instance string
}

// instanceState is the per-instance bookkeeping (dispatch goroutine only).
type instanceState struct {
	handler  Handler
	buffered []wire.Message
	// perSender counts buffered messages by sender, enforcing the
	// per-sender share of maxBufferedPerInstance.
	perSender map[int]int
}

// maxTombstones bounds the set of remembered finished instances. Older
// tombstones fall off FIFO: a straggler message for a forgotten instance
// merely re-enters the early-arrival buffer under its sender's quota, so
// eviction trades a little buffered memory for a hard bound here.
const maxTombstones = 4096

// Router multiplexes a party's transport among protocol instances.
type Router struct {
	tr wire.Transport

	// Dispatch-goroutine state; no lock needed.
	instances map[instanceKey]*instanceState
	// tombstones remembers finished instances so their late traffic is
	// dropped, without keeping the full instanceState alive. tombOrder and
	// tombHead implement bounded FIFO eviction (maxTombstones).
	tombstones map[instanceKey]struct{}
	tombOrder  []instanceKey
	tombHead   int
	// bufferedBySender counts buffered early-arrival messages per sender
	// across all instances (the maxBufferedPerSenderTotal guard).
	bufferedBySender map[int]int

	factoryMu sync.Mutex
	factories map[string]Factory

	// clientFacing are the protocols declared open to senders outside the
	// server set (AcceptClients); set before Run.
	clientFacing map[string]bool

	tasks chan func()
	inCh  chan wire.Message
	done  chan struct{}

	mx *routerMetrics // nil when observability is off

	// journal, when set, records slot-keyed outbound messages before
	// first transmission and out gates every send on it. Set before Run;
	// the implementation must be safe from any goroutine.
	journal Journal
	out     outbox
}

// Journal records protocol-critical outbound messages before their
// first transmission. RecordOutbound appends without waiting and returns
// the bytes to put on the wire: the given payload for a fresh slot, the
// recorded bytes for a slot already filled — a recovered replica can only
// repeat itself, never contradict itself. An error means the log refused
// the record and the message must not be sent. Progress reports how many
// records the log has accepted, how many of those are durable, a channel
// closed when that next changes, and the failure that makes durable final.
type Journal interface {
	RecordOutbound(protocol, instance, msgType, slot string, payload []byte) (send []byte, replayed bool, err error)
	Progress() (appended, durable uint64, changed <-chan struct{}, err error)
}

// everyone as a message's To addresses all servers, the sender included.
const everyone = -1

// outbox is the durability gate between the protocols and the transport
// (journal installed only): nothing that causally follows a journal
// record leaves the replica before that record is durable. A message is
// stamped with the journal's appended mark as it is sent and queued, in
// send order, until the durable mark reaches the stamp. A crash loses an
// undurable suffix of the log and every message that could reveal it.
type outbox struct {
	mu      sync.Mutex
	q       []gated
	sending bool          // the releaser is transmitting messages it took off q
	wake    chan struct{} // cap 1: q gained a message the releaser may not know of
	quit    chan struct{}
	done    chan struct{}
}

type gated struct {
	m    wire.Message
	mark uint64 // the journal's appended mark when m was sent
}

// routerMetrics holds the router's instruments. The per-(protocol,type)
// counter cache is touched only on the dispatch goroutine, so it needs no
// lock; the counters themselves are atomic and read from anywhere.
type routerMetrics struct {
	reg             *obs.Registry
	dispatchLatency *obs.Histogram
	applyLatency    *obs.Histogram
	dispatched      *obs.Counter
	taskDepth       *obs.Gauge
	bufferDepth     *obs.Gauge
	bufferDrops     *obs.Counter
	nonserver       *obs.Counter
	malformed       *obs.Counter
	panics          *obs.Counter
	tombstones      *obs.Gauge
	journalRecords  *obs.Counter
	journalReplayed *obs.Counter
	journalDrops    *obs.Counter

	counts map[ptKey]*obs.Counter
}

type ptKey struct{ protocol, msgType string }

// count bumps the per-(protocol,type) message counter. Dispatch goroutine
// only.
func (m *routerMetrics) count(protocol, msgType string) {
	k := ptKey{protocol, msgType}
	c, ok := m.counts[k]
	if !ok {
		c = m.reg.Counter("router.recv." + protocol + "." + msgType)
		m.counts[k] = c
	}
	c.Inc()
}

// SetObserver wires the router's metrics into reg. Call before Run (a nil
// registry leaves observability off).
//
// router.dispatch.latency spans admission to handler-completion of one
// message; engine.apply.latency times the handler alone, proof checks
// included.
func (r *Router) SetObserver(reg *obs.Registry) {
	if reg == nil {
		r.mx = nil
		return
	}
	r.mx = &routerMetrics{
		reg:             reg,
		dispatchLatency: reg.Histogram("router.dispatch.latency"),
		applyLatency:    reg.Histogram("engine.apply.latency"),
		dispatched:      reg.Counter("router.dispatched"),
		taskDepth:       reg.Gauge("router.tasks.depth"),
		bufferDepth:     reg.Gauge("router.buffered.depth"),
		bufferDrops:     reg.Counter("router.buffered.drops"),
		nonserver:       reg.Counter("router.dropped.nonserver"),
		malformed:       reg.Counter("router.malformed"),
		panics:          reg.Counter("router.panics"),
		tombstones:      reg.Gauge("engine.tombstones"),
		journalRecords:  reg.Counter("wal.records"),
		journalReplayed: reg.Counter("wal.replayed"),
		journalDrops:    reg.Counter("wal.dropped"),
		counts:          make(map[ptKey]*obs.Counter),
	}
}

// AcceptClients declares a protocol client-facing: its instances receive
// messages from endpoints outside the server set too. Every other
// protocol is between servers — the transport admits unauthenticated
// clients under any index >= n, and the protocols count senders toward
// quorums, so the router drops what a non-server sends them. Call before
// Run.
func (r *Router) AcceptClients(protocol string) { r.clientFacing[protocol] = true }

// SetJournal installs the outbound-message journal. Call before Run.
// With one every send passes the durability-gated outbox; without one
// SendJournaled/BroadcastJournaled are plain Send/Broadcast.
func (r *Router) SetJournal(j Journal) { r.journal = j }

// NewRouter wraps a transport. Call Run (usually in a goroutine) to start
// dispatching.
func NewRouter(tr wire.Transport) *Router {
	return &Router{
		tr:               tr,
		instances:        make(map[instanceKey]*instanceState),
		tombstones:       make(map[instanceKey]struct{}),
		bufferedBySender: make(map[int]int),
		factories:        make(map[string]Factory),
		clientFacing:     make(map[string]bool),
		tasks:            make(chan func(), 256),
		inCh:             make(chan wire.Message, 1),
		done:             make(chan struct{}),
		out:              outbox{wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})},
	}
}

// Self returns the local party index.
func (r *Router) Self() int { return r.tr.Self() }

// Observer returns the registry installed by SetObserver — the hook the
// protocol layers use to report through the router they already hold. It
// is nil (the no-op default) when observability is off.
func (r *Router) Observer() *obs.Registry {
	if r.mx == nil {
		return nil
	}
	return r.mx.reg
}

// N returns the number of servers.
func (r *Router) N() int { return r.tr.N() }

// state returns (creating if needed) the instance state. Dispatch
// goroutine only.
func (r *Router) state(key instanceKey) *instanceState {
	st, ok := r.instances[key]
	if !ok {
		st = &instanceState{}
		r.instances[key] = st
	}
	return st
}

// Register installs the handler of one instance and replays any buffered
// messages for it. It must run on the dispatch goroutine (inside a
// handler, a factory, or a Do task) or before Run starts.
func (r *Router) Register(protocol, instance string, h Handler) {
	key := instanceKey{protocol, instance}
	if _, dead := r.tombstones[key]; dead {
		return
	}
	st := r.state(key)
	st.handler = h
	replay := st.buffered
	r.releaseBuffered(st)
	for i := range replay {
		m := &replay[i]
		h(m.From, m.Type, m.Payload)
	}
}

// Unregister tombstones an instance; further messages for it are dropped,
// which garbage-collects finished protocol executions. The full per-
// instance state (handler, buffers) is released immediately — only the
// instance key survives, in a bounded tombstone set. Dispatch goroutine
// only.
func (r *Router) Unregister(protocol, instance string) {
	key := instanceKey{protocol, instance}
	if st, ok := r.instances[key]; ok {
		r.releaseBuffered(st)
		delete(r.instances, key)
	}
	r.addTombstone(key)
}

// addTombstone records a finished instance, evicting the oldest
// tombstones past maxTombstones. Dispatch goroutine only.
func (r *Router) addTombstone(key instanceKey) {
	if _, ok := r.tombstones[key]; ok {
		return
	}
	r.tombstones[key] = struct{}{}
	r.tombOrder = append(r.tombOrder, key)
	for len(r.tombstones) > maxTombstones {
		delete(r.tombstones, r.tombOrder[r.tombHead])
		r.tombHead++
	}
	// Compact the FIFO backing array once the dead prefix dominates, so
	// the slice itself stays bounded too.
	if r.tombHead > 1024 && r.tombHead*2 >= len(r.tombOrder) {
		r.tombOrder = append(r.tombOrder[:0:0], r.tombOrder[r.tombHead:]...)
		r.tombHead = 0
	}
	if r.mx != nil {
		r.mx.tombstones.Set(int64(len(r.tombstones)))
	}
}

// CompactTombstones drops every tombstone the caller proves obsolete —
// typically instances of rounds entirely below a checkpointed GC horizon,
// whose traffic can no longer arrive from honest parties (a straggler
// merely re-buffers under its sender's quota). Dispatch goroutine only.
func (r *Router) CompactTombstones(obsolete func(protocol, instance string) bool) {
	if obsolete == nil {
		return
	}
	kept := r.tombOrder[:0]
	for _, key := range r.tombOrder[r.tombHead:] {
		if _, live := r.tombstones[key]; !live {
			continue
		}
		if obsolete(key.protocol, key.instance) {
			delete(r.tombstones, key)
		} else {
			kept = append(kept, key)
		}
	}
	r.tombOrder = kept
	r.tombHead = 0
	if r.mx != nil {
		r.mx.tombstones.Set(int64(len(r.tombstones)))
	}
}

// Sizes reports the live-instance and tombstone map sizes (dispatch
// goroutine or pre-Run; regression tests assert both stay bounded).
func (r *Router) Sizes() (instances, tombstones int) {
	return len(r.instances), len(r.tombstones)
}

// releaseBuffered empties an instance's early-arrival buffer, returning
// the messages' slots to their senders' router-wide budgets. Dispatch
// goroutine only.
func (r *Router) releaseBuffered(st *instanceState) {
	for _, m := range st.buffered {
		r.creditSender(m.From)
	}
	st.buffered = nil
	st.perSender = nil
}

func (r *Router) creditSender(from int) {
	if n := r.bufferedBySender[from] - 1; n > 0 {
		r.bufferedBySender[from] = n
	} else {
		delete(r.bufferedBySender, from)
	}
}

// SetFactory installs an on-demand constructor for a protocol: the first
// message of an unknown instance creates its handler. Safe from any
// goroutine.
func (r *Router) SetFactory(protocol string, f Factory) {
	r.factoryMu.Lock()
	defer r.factoryMu.Unlock()
	r.factories[protocol] = f
}

// Do schedules a closure on the dispatch goroutine. It must NOT be called
// from the dispatch goroutine itself (handlers act directly instead). It
// returns false if the router has shut down.
func (r *Router) Do(f func()) bool {
	select {
	case <-r.done:
		return false
	default:
	}
	select {
	case r.tasks <- f:
		return true
	case <-r.done:
		return false
	}
}

// DoSync runs a closure on the dispatch goroutine and waits for it to
// finish. It must NOT be called from the dispatch goroutine (it would
// deadlock). It returns false if the router has shut down.
func (r *Router) DoSync(f func()) bool {
	doneCh := make(chan struct{})
	if !r.Do(func() {
		defer close(doneCh)
		f()
	}) {
		return false
	}
	select {
	case <-doneCh:
		return true
	case <-r.done:
		return false
	}
}

// post is the one send path: marshal body, journal it under slot (if
// any, and a journal is installed), emit it to one party or to everyone.
func (r *Router) post(slot string, to int, protocol, instance, msgType string, body any) error {
	payload, err := wire.MarshalBody(body)
	if err != nil {
		return err
	}
	if slot != "" && r.journal != nil {
		if payload, _, err = r.record(protocol, instance, msgType, slot, payload); err != nil {
			return err
		}
	}
	r.emit(wire.Message{
		To:       to,
		Protocol: protocol,
		Instance: instance,
		Type:     msgType,
		Payload:  payload,
	})
	return nil
}

// Send transmits one message to a party. Safe from any goroutine.
func (r *Router) Send(to int, protocol, instance, msgType string, body any) error {
	return r.post("", to, protocol, instance, msgType, body)
}

// Loopback sends a message to the local party itself — the entry point for
// externally-triggered protocol actions (Start, Submit). Safe from any
// goroutine.
func (r *Router) Loopback(protocol, instance, msgType string, body any) error {
	return r.post("", r.Self(), protocol, instance, msgType, body)
}

// Broadcast transmits one message to every server, including the sender
// itself (loopback), so protocols treat their own messages uniformly.
// Safe from any goroutine.
func (r *Router) Broadcast(protocol, instance, msgType string, body any) error {
	return r.post("", everyone, protocol, instance, msgType, body)
}

// SendJournaled is Send for protocol-critical messages: with a journal
// installed the payload is recorded under (protocol, instance, slot) and
// leaves once that record is durable, and a slot already journaled
// re-sends the recorded bytes verbatim. The slot must be non-empty and
// name a commitment an honest party never makes twice with different
// content (e.g. "bval/3/1", "prop/17"). On an error nothing is sent: a
// wedged replica goes mute (a benign crash) rather than risk a message it
// could later contradict. Safe from any goroutine.
func (r *Router) SendJournaled(slot string, to int, protocol, instance, msgType string, body any) error {
	return r.post(slot, to, protocol, instance, msgType, body)
}

// BroadcastJournaled is Broadcast under the journal-before-send
// invariant; see SendJournaled. Safe from any goroutine.
func (r *Router) BroadcastJournaled(slot string, protocol, instance, msgType string, body any) error {
	return r.post(slot, everyone, protocol, instance, msgType, body)
}

// JournalCommitment records a protocol commitment under (protocol,
// instance, slot) without transmitting anything — for commitments that
// are not themselves wire messages, such as the Merkle root a
// coded-broadcast sender binds itself to before fanning out fragments
// (which then wait in the outbox for the record). It returns the recorded
// bytes for the slot: the caller's payload on a fresh record, or the
// previously journaled bytes with replayed=true — a recovered caller must
// compare and repeat (or go mute), never contradict. With no journal the
// payload echoes back unrecorded. An error means the record was refused:
// do not act on the commitment. Safe from any goroutine.
func (r *Router) JournalCommitment(protocol, instance, msgType, slot string, payload []byte) (recorded []byte, replayed bool, err error) {
	if r.journal == nil {
		return payload, false, nil
	}
	return r.record(protocol, instance, msgType, slot, payload)
}

// record runs one payload through the journal and counts the outcome.
func (r *Router) record(protocol, instance, msgType, slot string, payload []byte) ([]byte, bool, error) {
	out, replayed, err := r.journal.RecordOutbound(protocol, instance, msgType, slot, payload)
	if r.mx != nil {
		switch {
		case err != nil:
			r.mx.journalDrops.Inc()
		case replayed:
			r.mx.journalReplayed.Inc()
		default:
			r.mx.journalRecords.Inc()
		}
	}
	return out, replayed, err
}

// emit hands one message to the transport: at once with no journal or
// nothing undurable ahead of it, otherwise through the outbox.
func (r *Router) emit(m wire.Message) {
	if r.journal == nil {
		r.transmit(m)
		return
	}
	appended, durable, _, err := r.journal.Progress()
	o := &r.out
	o.mu.Lock()
	switch {
	case durable < appended && err != nil:
		// The record this message follows will never be durable.
		o.mu.Unlock()
		r.dropGated(1)
	case durable >= appended && len(o.q) == 0 && !o.sending:
		o.mu.Unlock()
		r.transmit(m)
	default:
		o.q = append(o.q, gated{m, appended})
		o.mu.Unlock()
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
}

func (r *Router) transmit(m wire.Message) {
	if m.To != everyone {
		r.tr.Send(m)
		return
	}
	for to := 0; to < r.tr.N(); to++ {
		m.To = to
		r.tr.Send(m)
	}
}

func (r *Router) dropGated(n int) {
	if r.mx != nil {
		r.mx.journalDrops.Add(int64(n))
	}
}

// release is the outbox's one releaser: it transmits, in send order, what
// the journal's durable mark has reached, and discards the rest once the
// journal has failed — mute beats a message that follows a lost record.
func (r *Router) release() {
	o := &r.out
	defer close(o.done)
	for {
		_, durable, changed, err := r.journal.Progress()
		o.mu.Lock()
		k := 0
		for k < len(o.q) && o.q[k].mark <= durable {
			k++
		}
		batch := o.q[:k:k]
		o.q = o.q[k:]
		if err != nil {
			r.dropGated(len(o.q))
			o.q = nil
		}
		o.sending = k > 0
		o.mu.Unlock()
		for _, g := range batch {
			r.transmit(g.m)
		}
		o.mu.Lock()
		o.sending = false
		o.mu.Unlock()
		select {
		case <-changed:
		case <-o.wake:
		case <-o.quit:
			return
		}
	}
}

// Run dispatches inbound messages and scheduled tasks until the transport
// closes. It must be called exactly once.
func (r *Router) Run() {
	defer close(r.done)
	if r.journal != nil {
		go r.release()
		// What is still gated at exit is dropped, never flushed: a later
		// commit (the journal's Close runs one) must not make the dead speak.
		defer func() {
			close(r.out.quit)
			<-r.out.done
		}()
	}
	go func() {
		defer close(r.inCh)
		for {
			m, ok := r.tr.Recv()
			if !ok {
				return
			}
			r.inCh <- m
		}
	}()
	for {
		select {
		case m, ok := <-r.inCh:
			if !ok {
				return
			}
			r.safely(func() { r.admit(m) })
		case f := <-r.tasks:
			if r.mx != nil {
				r.mx.taskDepth.Set(int64(len(r.tasks)) + 1)
			}
			r.safely(f)
		}
	}
}

// safely runs f on the dispatch goroutine, converting a panic — a protocol
// handler tripped by attacker-supplied bytes — into a counted, traced
// event instead of a dead replica. The Decode guards below make this a
// backstop, not a crutch: the chaos suite asserts router.panics stays 0.
func (r *Router) safely(f func()) {
	defer func() {
		if p := recover(); p != nil {
			if r.mx != nil {
				r.mx.panics.Inc()
				r.mx.reg.Trace(obs.Event{
					Party: r.Self(), Protocol: "router", Stage: obs.StageDrop,
					Seq: -1, Note: fmt.Sprint("recovered handler panic: ", p),
				})
			}
		}
	}()
	f()
}

// Decode unmarshals an attacker-controlled message body on behalf of a
// protocol handler. On failure — malformed bytes from a corrupted party —
// it bumps the router.malformed counter and returns false; the handler
// simply drops the message. Every protocol layer routes its payload
// unmarshalling through this guard.
func (r *Router) Decode(payload []byte, v any) bool {
	if wire.UnmarshalBody(payload, v) == nil {
		return true
	}
	if r.mx != nil {
		r.mx.malformed.Inc()
	}
	return false
}

// Done is closed when Run returns.
func (r *Router) Done() <-chan struct{} { return r.done }

// admit routes one inbound message: to its instance's handler, into the
// early-arrival buffer when no handler exists yet — and nowhere when a
// non-server sends it to a protocol not declared client-facing. Dispatch
// goroutine only.
func (r *Router) admit(m wire.Message) {
	if (m.From < 0 || m.From >= r.tr.N()) && !r.clientFacing[m.Protocol] {
		// Not a server, and the protocol counts its senders as parties: drop
		// before the message can reach a handler or the early-arrival buffer.
		if r.mx != nil {
			r.mx.nonserver.Inc()
		}
		return
	}
	var start time.Time
	if r.mx != nil {
		start = time.Now()
		r.mx.count(m.Protocol, m.Type)
		r.mx.dispatched.Inc()
	}
	key := instanceKey{m.Protocol, m.Instance}
	if _, dead := r.tombstones[key]; dead {
		// Finished instance: drop without resurrecting any state for it.
		return
	}
	st := r.state(key)
	if st.handler == nil {
		// No handler yet: buffer the message so a factory-created handler
		// (or a later Register) replays it in arrival order.
		r.buffer(st, m)
		r.factoryMu.Lock()
		f, ok := r.factories[m.Protocol]
		r.factoryMu.Unlock()
		if ok {
			if h := f(m.Instance); h != nil {
				r.Register(m.Protocol, m.Instance, h)
			}
		}
		if r.mx != nil {
			r.mx.dispatchLatency.ObserveSince(start)
		}
		return
	}
	var t0 time.Time
	if r.mx != nil {
		t0 = time.Now()
	}
	st.handler(m.From, m.Type, m.Payload)
	if r.mx != nil {
		r.mx.applyLatency.ObserveSince(t0)
		r.mx.dispatchLatency.ObserveSince(start)
	}
}

// buffer queues one early-arrival message under the per-sender quotas.
// Dispatch goroutine only.
func (r *Router) buffer(st *instanceState, m wire.Message) {
	if r.bufferedBySender[m.From] >= maxBufferedPerSenderTotal {
		// The sender exhausted its router-wide budget (a flooder spamming
		// fresh instances); its new message is dropped on arrival.
		r.traceBufferDrop(&m, "router-wide early-arrival quota")
		return
	}
	quota := maxBufferedPerInstance / r.tr.N()
	if quota < 1 {
		quota = 1
	}
	if st.perSender == nil {
		st.perSender = make(map[int]int)
	}
	if st.perSender[m.From] >= quota {
		// Over the per-sender share: the sender loses its own oldest
		// message, never another party's.
		r.evictOldest(st, m.From)
	} else if len(st.buffered) >= maxBufferedPerInstance {
		// Possible only with more distinct sender ids than servers (forged
		// client ids): evict from whichever sender holds the most.
		worst, worstN := m.From, 0
		for s, c := range st.perSender {
			if c > worstN {
				worst, worstN = s, c
			}
		}
		r.evictOldest(st, worst)
	}
	st.buffered = append(st.buffered, m)
	st.perSender[m.From]++
	r.bufferedBySender[m.From]++
	if r.mx != nil {
		r.mx.bufferDepth.Set(int64(len(st.buffered)))
	}
}

// evictOldest drops the sender's oldest buffered message of one instance.
// Dispatch goroutine only.
func (r *Router) evictOldest(st *instanceState, sender int) {
	for i := range st.buffered {
		if st.buffered[i].From == sender {
			m := st.buffered[i]
			st.buffered = append(st.buffered[:i], st.buffered[i+1:]...)
			st.perSender[sender]--
			r.creditSender(sender)
			r.traceBufferDrop(&m, "per-sender early-arrival quota")
			return
		}
	}
}

// traceBufferDrop counts one buffered-message drop, noting the offending
// sender in the trace event.
func (r *Router) traceBufferDrop(m *wire.Message, reason string) {
	if r.mx == nil {
		return
	}
	r.mx.bufferDrops.Inc()
	if r.mx.reg.Tracing() {
		r.mx.reg.Trace(obs.Event{
			Party: r.Self(), Protocol: m.Protocol, Instance: m.Instance,
			Stage: obs.StageDrop, Seq: -1,
			Note: fmt.Sprintf("%s (from %d)", reason, m.From),
		})
	}
}
