// Package netsim simulates a completely asynchronous message-passing
// network whose delivery schedule is chosen by an adversary — the paper's
// model in which "the network is the adversary" (§2): the scheduler may
// reorder and delay messages arbitrarily, subject only to eventual
// delivery. It is strictly stronger than any real WAN, so liveness and
// safety observed here transfer to deployments.
//
// The simulator collects per-protocol traffic metrics for the experiment
// harness and hands each party (and each client) a wire.Transport endpoint.
//
// Only the scheduler's choices are deterministic under a seed: given the
// same pending pool, a seeded scheduler picks the same message. A run is
// not. pump chooses as soon as the pool is non-empty, while the parties'
// dispatch goroutines race to add to it, so which pool a choice is made
// from depends on goroutine timing, and a failing run does not replay from
// its seed. Quiescent delivery, which would make it replay, is ROADMAP
// item 1.
package netsim

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"sintra/internal/obs"
	"sintra/internal/wire"
)

// Scheduler picks which pending message is delivered next. Implementations
// MUST guarantee eventual delivery: every pending message must be chosen
// after finitely many calls, or the run leaves the asynchronous model.
//
// Next may return -1 to hold ALL pending messages until new traffic is
// enqueued — the adversary "waiting out" the protocol. This is still
// within the asynchronous model for any finite experiment: the held
// messages would be delivered after the observation window.
type Scheduler interface {
	// Next returns the index of the message to deliver from pending, or
	// -1 to wait for more traffic. pending is never empty.
	Next(pending []wire.Message) int
}

// RandomScheduler delivers a uniformly random pending message — a fair but
// unordered network.
type RandomScheduler struct {
	rng *rand.Rand
}

// NewRandomScheduler builds a fair scheduler with a deterministic seed.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{rng: rand.New(rand.NewSource(seed))}
}

// Next picks a uniformly random pending message.
func (s *RandomScheduler) Next(pending []wire.Message) int {
	return s.rng.Intn(len(pending))
}

// DelayScheduler adversarially starves messages matching Victim for as
// long as any other message is pending, modelling an attacker that delays
// traffic to or from chosen parties without breaking eventual delivery.
type DelayScheduler struct {
	rng *rand.Rand
	// Victim reports whether the adversary wants the message starved.
	Victim func(m *wire.Message) bool
}

// NewDelayScheduler builds an adversarial scheduler with the given victim
// predicate.
func NewDelayScheduler(seed int64, victim func(m *wire.Message) bool) *DelayScheduler {
	return &DelayScheduler{rng: rand.New(rand.NewSource(seed)), Victim: victim}
}

// Next delivers a random non-victim message if any exists, else the oldest
// victim (eventual delivery).
func (s *DelayScheduler) Next(pending []wire.Message) int {
	var free []int
	for i := range pending {
		if !s.Victim(&pending[i]) {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return 0
	}
	return free[s.rng.Intn(len(free))]
}

// PartitionScheduler isolates a set of parties: while the partition holds,
// messages crossing the boundary are starved whenever any same-side message
// is pending. After healAfter deliveries the partition heals and the
// scheduler becomes fair. If only crossing traffic is pending, the oldest
// crossing message is delivered anyway — the partition bends rather than
// break eventual delivery, keeping the run inside the asynchronous model.
//
// Endpoints not named in isolated (including clients, whose indices are
// >= N) sit on the majority side.
type PartitionScheduler struct {
	rng       *rand.Rand
	isolated  map[int]bool
	healAfter int64
	delivered atomic.Int64 // Healed is asked from outside the network goroutine
}

// NewPartitionScheduler builds a scheduler that cuts the isolated parties
// off from everyone else for the first healAfter deliveries.
func NewPartitionScheduler(seed int64, healAfter int, isolated ...int) *PartitionScheduler {
	cut := make(map[int]bool, len(isolated))
	for _, id := range isolated {
		cut[id] = true
	}
	return &PartitionScheduler{
		rng:       rand.New(rand.NewSource(seed)),
		isolated:  cut,
		healAfter: int64(healAfter),
	}
}

// Healed reports whether the partition has healed.
func (s *PartitionScheduler) Healed() bool { return s.delivered.Load() >= s.healAfter }

// Next starves crossing messages until the partition heals.
func (s *PartitionScheduler) Next(pending []wire.Message) int {
	if s.delivered.Add(1) > s.healAfter {
		return s.rng.Intn(len(pending))
	}
	var free []int
	for i := range pending {
		if s.isolated[pending[i].From] == s.isolated[pending[i].To] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return 0
	}
	return free[s.rng.Intn(len(free))]
}

// Stats aggregates traffic per protocol layer.
type Stats struct {
	// Messages counts delivered envelopes per protocol.
	Messages map[string]int
	// Bytes counts delivered payload volume per protocol.
	Bytes map[string]int
}

// Total returns the total message count across protocols.
func (s Stats) Total() (msgs, bytes int) {
	for _, v := range s.Messages {
		msgs += v
	}
	for _, v := range s.Bytes {
		bytes += v
	}
	return msgs, bytes
}

// Protocols lists the protocols seen, sorted.
func (s Stats) Protocols() []string {
	out := make([]string, 0, len(s.Messages))
	for k := range s.Messages {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Network is the simulated asynchronous network.
type Network struct {
	n         int // servers; endpoints beyond n are clients
	endpoints int

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []wire.Message
	inboxes   [][]wire.Message
	inboxCond []*sync.Cond
	epClosed  []bool
	scheduler Scheduler
	stopped   bool
	msgCount  map[string]int
	byteCount map[string]int

	// Observability (nil when off): per-protocol delivered messages and
	// bytes, plus the depth of the adversary's pending pool.
	obsMsgs      *obs.CounterVec
	obsBytes     *obs.CounterVec
	obsPending   *obs.Gauge
	obsDelivered *obs.Counter

	pumpDone chan struct{}
}

// New creates a network with n server endpoints and extra client
// endpoints, pumping deliveries in the order chosen by the scheduler.
func New(n, clients int, sched Scheduler) *Network {
	total := n + clients
	nw := &Network{
		n:         n,
		endpoints: total,
		inboxes:   make([][]wire.Message, total),
		inboxCond: make([]*sync.Cond, total),
		epClosed:  make([]bool, total),
		scheduler: sched,
		msgCount:  make(map[string]int),
		byteCount: make(map[string]int),
		pumpDone:  make(chan struct{}),
	}
	nw.cond = sync.NewCond(&nw.mu)
	for i := range nw.inboxCond {
		nw.inboxCond[i] = sync.NewCond(&nw.mu)
	}
	go nw.pump()
	return nw
}

// N returns the number of server endpoints.
func (nw *Network) N() int { return nw.n }

// SetObserver reports the simulator's traffic through reg: counters
// "net.msgs.<protocol>" / "net.bytes.<protocol>", the total
// "net.delivered", and the gauge "net.pending.depth" (the adversary's
// in-flight pool). A nil registry turns observability off.
func (nw *Network) SetObserver(reg *obs.Registry) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if reg == nil {
		nw.obsMsgs, nw.obsBytes, nw.obsPending, nw.obsDelivered = nil, nil, nil, nil
		return
	}
	nw.obsMsgs = reg.CounterVec("net.msgs")
	nw.obsBytes = reg.CounterVec("net.bytes")
	nw.obsPending = reg.Gauge("net.pending.depth")
	nw.obsDelivered = reg.Counter("net.delivered")
}

// pump moves messages from the pending pool to inboxes, one at a time, in
// scheduler order.
func (nw *Network) pump() {
	defer close(nw.pumpDone)
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for {
		for len(nw.pending) == 0 && !nw.stopped {
			nw.cond.Wait()
		}
		if nw.stopped {
			return
		}
		idx := nw.scheduler.Next(nw.pending)
		if idx < 0 {
			// The scheduler holds everything; wait for new traffic.
			before := len(nw.pending)
			for len(nw.pending) == before && !nw.stopped {
				nw.cond.Wait()
			}
			continue
		}
		if idx >= len(nw.pending) {
			idx = 0
		}
		m := nw.pending[idx]
		nw.pending = append(nw.pending[:idx], nw.pending[idx+1:]...)
		if m.To >= 0 && m.To < nw.endpoints && !nw.epClosed[m.To] {
			// Closed endpoints drop traffic instead of accumulating an
			// inbox nobody will ever drain (a crashed replica must not
			// leak the cluster's ongoing chatter).
			nw.inboxes[m.To] = append(nw.inboxes[m.To], m)
			nw.msgCount[m.Protocol]++
			nw.byteCount[m.Protocol] += m.Size()
			if nw.obsDelivered != nil {
				nw.obsDelivered.Inc()
				nw.obsMsgs.With(m.Protocol).Inc()
				nw.obsBytes.With(m.Protocol).Add(int64(m.Size()))
				nw.obsPending.Set(int64(len(nw.pending)))
			}
			nw.inboxCond[m.To].Signal()
		}
	}
}

// send enqueues a message into the pending pool.
func (nw *Network) send(m wire.Message) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.stopped {
		return
	}
	nw.pending = append(nw.pending, m)
	nw.cond.Signal()
}

// Reopen revives a closed endpoint so a restarted replica can rejoin the
// simulation: the closed flag clears and any stale queued traffic is
// discarded (a real restarted process starts with an empty socket too).
func (nw *Network) Reopen(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if id < 0 || id >= nw.endpoints {
		return
	}
	nw.epClosed[id] = false
	nw.inboxes[id] = nil
}

// recv blocks until a message arrives for the endpoint or the network
// stops.
func (nw *Network) recv(id int) (wire.Message, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for len(nw.inboxes[id]) == 0 && !nw.stopped && !nw.epClosed[id] {
		nw.inboxCond[id].Wait()
	}
	if len(nw.inboxes[id]) == 0 || nw.epClosed[id] {
		return wire.Message{}, false
	}
	m := nw.inboxes[id][0]
	nw.inboxes[id] = nw.inboxes[id][1:]
	return m, true
}

// Stop shuts the network down, unblocking every Recv.
func (nw *Network) Stop() {
	nw.mu.Lock()
	if nw.stopped {
		nw.mu.Unlock()
		<-nw.pumpDone
		return
	}
	nw.stopped = true
	nw.cond.Broadcast()
	for _, c := range nw.inboxCond {
		c.Broadcast()
	}
	nw.mu.Unlock()
	<-nw.pumpDone
}

// Stats snapshots the per-protocol traffic counters.
func (nw *Network) Stats() Stats {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	st := Stats{
		Messages: make(map[string]int, len(nw.msgCount)),
		Bytes:    make(map[string]int, len(nw.byteCount)),
	}
	for k, v := range nw.msgCount {
		st.Messages[k] = v
	}
	for k, v := range nw.byteCount {
		st.Bytes[k] = v
	}
	return st
}

// ResetStats clears the traffic counters (between experiment phases).
func (nw *Network) ResetStats() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.msgCount = make(map[string]int)
	nw.byteCount = make(map[string]int)
}

// Endpoint returns the transport handle of one endpoint. Server endpoints
// are 0..N-1; client endpoints follow.
func (nw *Network) Endpoint(id int) wire.Transport {
	return &endpoint{nw: nw, id: id}
}

// endpoint adapts the network to wire.Transport for one party.
type endpoint struct {
	nw *Network
	id int
}

var _ wire.Transport = (*endpoint)(nil)

func (e *endpoint) Self() int { return e.id }
func (e *endpoint) N() int    { return e.nw.n }

func (e *endpoint) Send(m wire.Message) {
	m.From = e.id
	e.nw.send(m)
}

func (e *endpoint) Recv() (wire.Message, bool) { return e.nw.recv(e.id) }

// Close shuts this endpoint down, unblocking its Recv; the rest of the
// network keeps running.
func (e *endpoint) Close() error {
	e.nw.mu.Lock()
	defer e.nw.mu.Unlock()
	if !e.nw.epClosed[e.id] {
		e.nw.epClosed[e.id] = true
		e.nw.inboxCond[e.id].Broadcast()
	}
	return nil
}
