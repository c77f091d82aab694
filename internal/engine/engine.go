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
// # Verification pipeline
//
// Message processing is split into two stages. The Verify stage is a pure
// function of the message bytes and public key material — decode, check a
// DLEQ proof, a threshold signature share, a ciphertext consistency proof
// — and runs on a pool of worker goroutines, so the expensive public-key
// operations of concurrent protocol instances overlap on multicore
// hardware. The Apply stage consumes the Verify stage's verdict and
// mutates protocol state; it runs on the single dispatch goroutine, in
// arrival order, preserving the single-threaded state machine model.
// Handlers registered through Register are single-stage (Apply only);
// RegisterSplit installs a two-stage handler for the message types whose
// verification dominates. When the pool is disabled (SetVerifyWorkers(0))
// every message is applied with a nil verdict and split handlers fall
// back to verifying inline — the two paths are behaviorally identical,
// which the equivalence tests at the repository root assert.
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
	"runtime"
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

// verifyQueueCap bounds the number of messages waiting for a verify
// worker. When the pool falls this far behind, further messages degrade
// to apply-time verification instead of blocking the dispatch goroutine
// (counted by engine.verify.degraded).
const verifyQueueCap = 1024

// Handler processes one inbound message of an instance, on the dispatch
// goroutine.
type Handler func(from int, msgType string, payload []byte)

// VerifyFunc is the parallel first stage of a split handler. It must be a
// pure function of the message and immutable key material: it runs on a
// worker goroutine, concurrently with the dispatch goroutine and with
// other verifications, and must not touch protocol state. It returns an
// opaque verdict for the Apply stage; returning nil means "no verdict"
// and obliges Apply to verify the message itself.
type VerifyFunc func(from int, msgType string, payload []byte) any

// ApplyFunc is the serialized second stage: it consumes the verdict and
// mutates protocol state on the dispatch goroutine, in arrival order.
// verdict is nil whenever the Verify stage did not run — replayed
// early-arrival messages, a disabled or saturated worker pool, a panic in
// Verify — so Apply must treat nil as "verify inline", never as valid.
type ApplyFunc func(from int, msgType string, payload []byte, verdict any)

// BatchVerifyFunc is the coalescing variant of VerifyFunc: it checks a
// burst of same-type messages of one instance in a single call — e.g.
// one folded product test over k coin shares instead of k independent
// proof verifications. It returns one verdict per message (parallel to
// msgs, nil = "no verdict, Apply verifies inline") plus the number of
// invalid messages found, which feeds the engine.verify.batch.culprits
// metric. The same purity rules as VerifyFunc apply.
type BatchVerifyFunc func(msgs []*wire.Message) ([]any, int)

// SplitHandler is a two-stage handler: Verify runs in parallel for the
// message types listed in VerifyTypes, Apply runs serialized for every
// message of the instance. Types not in VerifyTypes skip straight to
// Apply with a nil verdict. An optional BatchVerify lets a verify
// worker coalesce a backlog burst of one type into a single call;
// handlers must remain correct without it (single messages and
// saturated or disabled batching still go through Verify or inline
// apply-time verification).
type SplitHandler struct {
	Verify      VerifyFunc
	BatchVerify BatchVerifyFunc
	Apply       ApplyFunc
	VerifyTypes []string
}

// Factory creates a handler on demand for an instance that receives its
// first message before being registered explicitly. Factories run on the
// dispatch goroutine; the router registers the returned handler itself.
type Factory func(instance string) Handler

type instanceKey struct {
	protocol string
	instance string
}

// boundHandler is the installed form of a handler: single-stage handlers
// have only apply; split handlers add verify and the type set.
type boundHandler struct {
	apply       ApplyFunc
	verify      VerifyFunc
	batchVerify BatchVerifyFunc
	verifyTypes map[string]bool
}

// instanceState is the per-instance bookkeeping (dispatch goroutine only).
type instanceState struct {
	handler  *boundHandler
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

// applyCell is one admitted message waiting for its serialized apply.
// done is closed when the verdict is available; cells that skip the
// Verify stage share a pre-closed channel and allocate nothing extra.
type applyCell struct {
	m       wire.Message
	key     instanceKey
	verify  VerifyFunc
	bh      *boundHandler // for batch grouping by (handler, type)
	verdict any
	done    chan struct{}
	start   time.Time
}

// closedCh is the shared done channel of cells with no Verify stage.
var closedCh = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

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
	// applyQ is the FIFO of admitted messages whose apply is pending;
	// the head is applied as soon as its verdict is ready, so arrival
	// order is preserved no matter how verifications reorder.
	applyQ []*applyCell

	factoryMu sync.Mutex
	factories map[string]Factory

	// clientFacing are the protocols declared open to senders outside the
	// server set (AcceptClients); set before Run.
	clientFacing map[string]bool

	tasks chan func()
	inCh  chan wire.Message
	done  chan struct{}

	// verifyWorkers is the Verify-stage pool size; 0 disables the pool.
	// Set before Run (SetVerifyWorkers); read only by Run.
	verifyWorkers int
	// verifyBatch is the coalescing cap of one verify-worker drain
	// (SetVerifyBatch); immutable once the workers start.
	verifyBatch int
	verifyCh    chan *applyCell
	workerWg    sync.WaitGroup

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
	verifyLatency   *obs.Histogram
	applyLatency    *obs.Histogram
	parallelism     *obs.Gauge
	dispatched      *obs.Counter
	verified        *obs.Counter
	degraded        *obs.Counter
	verifyPanics    *obs.Counter
	batchBatches    *obs.Counter
	batchMessages   *obs.Counter
	batchCulprits   *obs.Counter
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
// router.dispatch.latency spans admission to apply-completion of one
// message; engine.verify.latency and engine.apply.latency time the two
// pipeline stages separately, and the high-water mark of the
// engine.verify.parallelism gauge records how many verifications actually
// overlapped.
func (r *Router) SetObserver(reg *obs.Registry) {
	if reg == nil {
		r.mx = nil
		return
	}
	r.mx = &routerMetrics{
		reg:             reg,
		dispatchLatency: reg.Histogram("router.dispatch.latency"),
		verifyLatency:   reg.Histogram("engine.verify.latency"),
		applyLatency:    reg.Histogram("engine.apply.latency"),
		parallelism:     reg.Gauge("engine.verify.parallelism"),
		dispatched:      reg.Counter("router.dispatched"),
		verified:        reg.Counter("engine.verify.messages"),
		degraded:        reg.Counter("engine.verify.degraded"),
		verifyPanics:    reg.Counter("engine.verify.panics"),
		batchBatches:    reg.Counter("engine.verify.batch.batches"),
		batchMessages:   reg.Counter("engine.verify.batch.messages"),
		batchCulprits:   reg.Counter("engine.verify.batch.culprits"),
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
// dispatching. The Verify-stage worker pool defaults to GOMAXPROCS when
// at least two processors are available; on a single processor the pool
// cannot run verifications in parallel with dispatch, so its handoff
// overhead buys nothing and the default is the inline (disabled) path.
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
		verifyWorkers:    DefaultVerifyWorkers(),
		out:              outbox{wake: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})},
	}
}

// DefaultVerifyWorkers sizes the pool off the available parallelism: one
// worker per processor, and no pool (0) on a single one.
func DefaultVerifyWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 0
}

// SetVerifyWorkers sizes the Verify-stage worker pool; 0 disables it, in
// which case split handlers verify inline during Apply. Call before Run.
func (r *Router) SetVerifyWorkers(n int) {
	if n < 0 {
		n = 0
	}
	r.verifyWorkers = n
}

// defaultVerifyBatch caps one verify-worker drain. Under queue pressure
// a worker coalesces up to this many pending messages into one pass;
// bursts in the protocols here are share floods of n-party instances,
// so the default comfortably covers realistic n while bounding how much
// work one batch holds back from the other workers.
const defaultVerifyBatch = 16

// SetVerifyBatch sets how many queued messages one verify worker may
// coalesce into a single BatchVerify call: 0 selects the default,
// a negative value disables coalescing (every message verifies
// individually — the always-correct fallback path), and a positive
// value caps the batch. Call before Run.
func (r *Router) SetVerifyBatch(n int) {
	switch {
	case n == 0:
		r.verifyBatch = 0
	case n < 0:
		r.verifyBatch = 1
	default:
		r.verifyBatch = n
	}
}

// verifyBatchCap resolves the knob at Run time.
func (r *Router) verifyBatchCap() int {
	if r.verifyBatch == 0 {
		return defaultVerifyBatch
	}
	return r.verifyBatch
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

// Register installs a single-stage handler for one instance and replays
// any buffered messages for it. It must run on the dispatch goroutine
// (inside a handler, a factory, or a Do task) or before Run starts.
func (r *Router) Register(protocol, instance string, h Handler) {
	r.register(protocol, instance, &boundHandler{
		apply: func(from int, msgType string, payload []byte, _ any) {
			h(from, msgType, payload)
		},
	})
}

// RegisterSplit installs a two-stage handler: h.Verify runs on the worker
// pool for the message types in h.VerifyTypes, h.Apply runs serialized on
// the dispatch goroutine for every message. Buffered messages replay
// through Apply with a nil verdict. Same calling rules as Register.
func (r *Router) RegisterSplit(protocol, instance string, h SplitHandler) {
	bh := &boundHandler{apply: h.Apply, verify: h.Verify, batchVerify: h.BatchVerify}
	if h.Verify != nil && len(h.VerifyTypes) > 0 {
		bh.verifyTypes = make(map[string]bool, len(h.VerifyTypes))
		for _, t := range h.VerifyTypes {
			bh.verifyTypes[t] = true
		}
	}
	r.register(protocol, instance, bh)
}

func (r *Router) register(protocol, instance string, bh *boundHandler) {
	key := instanceKey{protocol, instance}
	if _, dead := r.tombstones[key]; dead {
		return
	}
	st := r.state(key)
	st.handler = bh
	replay := st.buffered
	r.releaseBuffered(st)
	for i := range replay {
		m := &replay[i]
		bh.apply(m.From, m.Type, m.Payload, nil)
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
	if r.verifyWorkers > 0 {
		r.verifyCh = make(chan *applyCell, verifyQueueCap)
		for i := 0; i < r.verifyWorkers; i++ {
			r.workerWg.Add(1)
			go r.verifyWorker()
		}
		defer r.workerWg.Wait()
		defer close(r.verifyCh)
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
		// The apply queue's head gates the select: the moment its verdict
		// is ready the message is applied, while later arrivals keep
		// being admitted (and verified) behind it.
		var headDone chan struct{}
		if len(r.applyQ) > 0 {
			headDone = r.applyQ[0].done
		}
		select {
		case m, ok := <-r.inCh:
			if !ok {
				r.drainApplyQueue()
				return
			}
			r.safely(func() { r.admit(m) })
			r.applyReady()
		case f := <-r.tasks:
			if r.mx != nil {
				r.mx.taskDepth.Set(int64(len(r.tasks)) + 1)
			}
			r.safely(f)
			r.applyReady()
		case <-headDone:
			r.applyReady()
		}
	}
}

// applyReady applies queued messages from the head while their verdicts
// are ready, preserving arrival order. Dispatch goroutine only.
func (r *Router) applyReady() {
	for len(r.applyQ) > 0 {
		c := r.applyQ[0]
		select {
		case <-c.done:
		default:
			return
		}
		r.popApply(c)
	}
}

// drainApplyQueue waits out and applies every pending message; it runs at
// shutdown so no admitted message is silently lost mid-pipeline.
func (r *Router) drainApplyQueue() {
	for len(r.applyQ) > 0 {
		c := r.applyQ[0]
		<-c.done
		r.popApply(c)
	}
}

func (r *Router) popApply(c *applyCell) {
	if len(r.applyQ) == 1 {
		r.applyQ = nil // release the backing array between bursts
	} else {
		r.applyQ = r.applyQ[1:]
	}
	// Re-resolve the instance: it may have been tombstoned while the
	// message waited for its verdict.
	st, ok := r.instances[c.key]
	if !ok || st.handler == nil {
		if r.mx != nil {
			r.mx.dispatchLatency.ObserveSince(c.start)
		}
		return
	}
	r.applyNow(st.handler, &c.m, c.verdict, c.start)
}

// applyNow runs the Apply stage of one message and closes out its
// metrics. Dispatch goroutine only.
func (r *Router) applyNow(bh *boundHandler, m *wire.Message, verdict any, start time.Time) {
	var t0 time.Time
	if r.mx != nil {
		t0 = time.Now()
	}
	r.safely(func() { bh.apply(m.From, m.Type, m.Payload, verdict) })
	if r.mx != nil {
		r.mx.applyLatency.ObserveSince(t0)
		r.mx.dispatchLatency.ObserveSince(start)
	}
}

// verifyWorker drains the verify queue until shutdown. With coalescing
// enabled, a worker that finds a backlog pulls up to verifyBatch more
// cells without blocking — batching is purely adaptive: an idle system
// verifies every message individually at minimum latency, while queue
// pressure grows the drained bursts toward the cap, exactly when the
// per-batch saving matters.
func (r *Router) verifyWorker() {
	defer r.workerWg.Done()
	limit := r.verifyBatchCap()
	for c := range r.verifyCh {
		if limit <= 1 {
			r.runVerify(c)
			continue
		}
		cells := []*applyCell{c}
		for len(cells) < limit {
			var c2 *applyCell
			var ok bool
			select {
			case c2, ok = <-r.verifyCh:
			default:
			}
			if !ok || c2 == nil {
				break
			}
			cells = append(cells, c2)
		}
		r.verifyGroups(cells)
	}
}

// verifyGroups partitions one drained burst by (handler, message type)
// and runs each group of 2+ same-kind messages through the handler's
// BatchVerify; everything else takes the per-message path. Verdict
// completion order is irrelevant — the apply queue replays in arrival
// order regardless.
func (r *Router) verifyGroups(cells []*applyCell) {
	if len(cells) == 1 {
		r.runVerify(cells[0])
		return
	}
	type groupKey struct {
		bh  *boundHandler
		typ string
	}
	var groups map[groupKey][]*applyCell
	for _, c := range cells {
		if c.bh == nil || c.bh.batchVerify == nil {
			r.runVerify(c)
			continue
		}
		if groups == nil {
			groups = make(map[groupKey][]*applyCell, 4)
		}
		k := groupKey{c.bh, c.m.Type}
		groups[k] = append(groups[k], c)
	}
	for _, g := range groups {
		if len(g) == 1 {
			r.runVerify(g[0])
		} else {
			r.runVerifyBatch(g)
		}
	}
}

// runVerifyBatch executes one coalesced BatchVerify call on a worker
// goroutine. Panics and malformed results (wrong verdict count) leave
// every verdict nil, so Apply falls back to inline verification — the
// same containment contract as runVerify, batched.
func (r *Router) runVerifyBatch(cells []*applyCell) {
	var verdicts []any
	culprits := 0
	func() {
		defer func() {
			if p := recover(); p != nil {
				verdicts = nil
				if r.mx != nil {
					r.mx.verifyPanics.Inc()
					r.mx.reg.Trace(obs.Event{
						Party: r.Self(), Protocol: cells[0].key.protocol, Instance: cells[0].key.instance,
						Stage: obs.StageDrop, Seq: -1,
						Note: fmt.Sprint("recovered batch-verify panic: ", p),
					})
				}
			}
		}()
		var t0 time.Time
		if r.mx != nil {
			t0 = time.Now()
			r.mx.parallelism.Add(1)
			defer func() {
				r.mx.parallelism.Add(-1)
				r.mx.verifyLatency.ObserveSince(t0)
			}()
		}
		msgs := make([]*wire.Message, len(cells))
		for i, c := range cells {
			msgs[i] = &c.m
		}
		verdicts, culprits = cells[0].bh.batchVerify(msgs)
	}()
	if len(verdicts) != len(cells) {
		verdicts, culprits = nil, 0
	}
	for i, c := range cells {
		if verdicts != nil {
			c.verdict = verdicts[i]
		}
		close(c.done)
	}
	if r.mx != nil {
		r.mx.verified.Add(int64(len(cells)))
		r.mx.batchBatches.Inc()
		r.mx.batchMessages.Add(int64(len(cells)))
		r.mx.batchCulprits.Add(int64(culprits))
	}
}

// runVerify executes one cell's Verify stage on a worker goroutine. A
// panic — attacker bytes slipping past a decode guard — leaves the
// verdict nil, so Apply falls back to inline verification and the replica
// stays alive.
func (r *Router) runVerify(c *applyCell) {
	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			c.verdict = nil
			if r.mx != nil {
				r.mx.verifyPanics.Inc()
				r.mx.reg.Trace(obs.Event{
					Party: r.Self(), Protocol: c.key.protocol, Instance: c.key.instance,
					Stage: obs.StageDrop, Seq: -1,
					Note: fmt.Sprint("recovered verify panic: ", p),
				})
			}
		}
	}()
	var t0 time.Time
	if r.mx != nil {
		t0 = time.Now()
		r.mx.parallelism.Add(1)
	}
	c.verdict = c.verify(c.m.From, c.m.Type, c.m.Payload)
	if r.mx != nil {
		r.mx.parallelism.Add(-1)
		r.mx.verifyLatency.ObserveSince(t0)
		r.mx.verified.Inc()
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

// admit routes one inbound message: straight to Apply when possible,
// through the verify pipeline when its handler asks for it, into the
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
	bh := st.handler
	needsVerify := r.verifyCh != nil && bh.verifyTypes != nil && bh.verifyTypes[m.Type]
	if !needsVerify && len(r.applyQ) == 0 {
		// Fast path: nothing queued ahead, nothing to verify — apply in
		// place with no cell allocation (the pre-pipeline hot path).
		r.applyNow(bh, &m, nil, start)
		return
	}
	c := &applyCell{m: m, key: key, start: start, done: closedCh}
	if needsVerify {
		c.verify = bh.verify
		c.bh = bh
		c.done = make(chan struct{})
		select {
		case r.verifyCh <- c:
		default:
			// Pool saturated: degrade this message to apply-time inline
			// verification rather than blocking admission.
			c.verify = nil
			c.done = closedCh
			if r.mx != nil {
				r.mx.degraded.Inc()
			}
		}
	}
	r.applyQ = append(r.applyQ, c)
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
