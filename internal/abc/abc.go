// Package abc implements atomic broadcast: total ordering of client
// requests, the service layer of the paper's architecture (§3). The
// protocol follows the round structure the paper describes (after the
// atomic broadcast of Chandra–Toueg, lifted to the Byzantine model):
//
//	The parties proceed in global rounds. In each round every party
//	digitally signs the batch of messages it proposes and sends it to
//	all others; every party then proposes a quorum of properly signed
//	batches to multi-valued Byzantine agreement, whose external validity
//	condition checks the signatures; all messages in the decided list
//	are delivered in a fixed deterministic order.
//
// Because the decided list carries a quorum of signed proposals, messages
// from honest parties cannot be forged, and a message known to enough
// honest parties cannot be delayed forever (fairness). Atomic broadcast
// is equivalent to Byzantine agreement in this model and correspondingly
// more expensive than reliable broadcast — the architecture uses it
// exactly where total order is required.
package abc

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/engine"
	"sintra/internal/identity"
	"sintra/internal/mvba"
	"sintra/internal/obs"
	"sintra/internal/rbc"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Protocol is the wire protocol name of atomic broadcast.
const Protocol = "abc"

// DefaultBatchSize bounds how many queued payloads one proposal carries.
const DefaultBatchSize = 8

// DefaultMaxBatchFactor is the default adaptive headroom: under queue
// pressure the batch bound may grow up to this multiple of BatchSize.
const DefaultMaxBatchFactor = 8

// dedupHistory bounds the delivered-digest dedup history: digests more
// than this many deliveries below the frontier are pruned at round
// boundaries even without a checkpoint certificate. The prune rule reads
// only decided values and the deterministic delivered map, so honest
// replicas prune identically — which is why it is a constant and not a
// per-replica knob. A payload replayed after its digest ages out is
// delivered again (at-most-once within the window, the standard
// watermark trade-off).
const dedupHistory = 8192

// roundWindow bounds how far ahead of the current round a proposal may
// be buffered; beyond it the proposals map would grow without bound
// under a Byzantine future-round flood.
const roundWindow = 32

// submittedTTL expires submit timestamps of payloads that never deliver
// (e.g. dropped under a Byzantine flood), bounding the latency map.
const submittedTTL = 2 * time.Minute

// maxRecent caps the retained post-checkpoint suffix log; a gap simply
// downgrades catch-up replies to snapshot-only.
const maxRecent = 8192

// Message types.
const (
	typeSubmit   = "SUBMIT"
	typeProposal = "PROPOSAL"
)

type submitBody struct {
	Payload []byte
}

// SignedProposal is one party's signed batch for a round; lists of these
// are the values fed to multi-valued agreement.
type SignedProposal struct {
	// Party is the proposer.
	Party int
	// Round is the atomic-broadcast round.
	Round int64
	// Batch holds the proposed payloads (possibly empty for parties that
	// join a round without pending requests). Empty when Coded is set.
	Batch [][]byte
	// Coded marks a header-only proposal: Batch is empty and the batch
	// bytes travel separately by coded reliable broadcast.
	Coded bool
	// BatchDigest binds a coded proposal to its reliably-broadcast batch
	// blob (sha256 of the marshaled blob).
	BatchDigest [32]byte
	// Ckpt optionally piggybacks the proposer's latest stable checkpoint
	// certificate (wire-encoded). Folding it into the decided value makes
	// the garbage-collection horizon part of the agreed round output, so
	// every honest replica prunes at the same point.
	Ckpt []byte
	// Sig is the proposer's individual signature over (round, batch,
	// checkpoint).
	Sig []byte
}

type proposalList struct {
	Proposals []SignedProposal
}

// Config wires one atomic-broadcast instance.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Struct is the adversary structure.
	Struct *adversary.Structure
	// Trust optionally overrides the quorum backend, threaded down
	// through the embedded multi-valued agreements to every layer below
	// and used for the proposal-quorum rules here; nil wraps Struct in
	// the symmetric backend, preserving the original behavior.
	Trust trust.Quorums
	// Instance is the instance identifier (one per replicated service).
	Instance string
	// Identity is the registry of individual signature keys; IDKey the
	// party's own key.
	Identity *identity.Registry
	IDKey    *identity.Key
	// Coin and CoinKey drive the embedded agreement protocols.
	Coin    *coin.Params
	CoinKey *coin.SecretKey
	// Scheme and Key are the quorum-rule threshold signature scheme used
	// by the embedded consistent broadcasts.
	Scheme thresig.Scheme
	Key    *thresig.SecretKey
	// Deliver is called with a monotonically increasing sequence number
	// for every a-delivered payload, in the same order on every honest
	// party.
	Deliver func(seq int64, payload []byte)
	// BatchSize bounds proposal batches (default DefaultBatchSize). It
	// is the floor of the adaptive bound: a backlog grows the bound
	// toward MaxBatchSize, an idle queue shrinks it back to BatchSize.
	BatchSize int
	// MaxBatchSize caps adaptive batch growth (default
	// DefaultMaxBatchFactor × BatchSize; values below BatchSize clamp
	// to BatchSize, fixing the batch bound).
	MaxBatchSize int
	// ProvideCheckpoint, if set, returns the encoded latest stable
	// checkpoint certificate to piggyback on this party's proposals (nil
	// when none yet).
	ProvideCheckpoint func() []byte
	// VerifyCheckpoint validates a piggybacked certificate and returns
	// the checkpointed sequence number. It must be deterministic in the
	// bytes alone; the maximum over a decided round's valid certificates
	// advances the GC horizon identically on every honest replica.
	VerifyCheckpoint func(enc []byte) (seq int64, ok bool)
	// RoundEnd, if set, fires after each round's deliveries with the new
	// frontier, the round about to open, and the GC horizon — the hook
	// the checkpoint tracker and request bookkeeping hang off.
	RoundEnd func(seq, nextRound, horizon int64)
	// CodedThreshold switches proposals whose batch payloads total at
	// least this many bytes to coded dissemination: the proposal carries
	// a digest and the batch travels once by coded reliable broadcast.
	// 0 selects DefaultCodedThreshold; negative disables the coded path.
	// Must be configured identically on every replica.
	CodedThreshold int
	// ChunkSize splits submitted payloads larger than this many bytes
	// into deterministic frames that reassemble after delivery, so one
	// huge payload cannot wedge a round. 0 selects DefaultChunkSize;
	// negative disables chunking. Must be configured identically on
	// every replica.
	ChunkSize int
}

// ABC is one atomic-broadcast instance; dispatch-goroutine only, except
// for the atomic progress metrics Round and Seq.
type ABC struct {
	cfg   Config
	trust trust.Quorums
	self  int

	// round and seq are written on the dispatch goroutine but read by
	// Round/Seq from harness and experiment goroutines, so they are
	// atomics rather than plain fields.
	round  atomic.Int64
	seq    atomic.Int64
	active bool

	proposals map[int64]map[int]SignedProposal
	mvbas     map[int64]*mvba.MVBA

	// Coded-dissemination state: resolved threshold (0 = disabled),
	// reliably-delivered batch blobs, the per-(round, proposer) coded
	// broadcast instances, and decides parked on a missing batch.
	codedThreshold int
	batches        map[batchKey][]byte
	batchRBCs      map[batchKey]*rbc.RBC
	pendingDecide  map[int64][]byte

	// Chunking state: resolved frame size (0 = disabled) and the
	// reassembly groups in first-frame delivery order.
	chunkSize   int
	chunkGroups map[chunkKey]*chunkGroup
	chunkOrder  []chunkKey

	queue  [][]byte
	queued map[[32]byte]bool
	// delivered maps each delivered payload digest to its sequence
	// number; entries below the GC horizon are pruned.
	delivered map[[32]byte]int64
	// gcHorizon is the stable prune point: every delivered digest below
	// it has been dropped. Advances deterministically at round ends.
	gcHorizon int64
	// recent retains the (seq, payload) delivery suffix above the GC
	// horizon for serving checkpoint catch-up; nil unless checkpointing
	// is wired (VerifyCheckpoint set).
	recent []recentEntry
	// curBatch is the adaptive batch bound, in [BatchSize, MaxBatchSize].
	curBatch int

	span *obs.Span
	// submitted stamps locally submitted payloads so their submit-to-
	// deliver ordering latency can be measured (observer on only);
	// entries expire after submittedTTL so payloads that never deliver
	// cannot grow it without bound.
	submitted    map[[32]byte]time.Time
	submitsSince int
	orderLat     *obs.Histogram
	batchSize    *obs.Gauge

	gcFreed       *obs.Counter
	deliveredSize *obs.Gauge
	horizonGauge  *obs.Gauge

	codedProposals  *obs.Counter
	codedDeferred   *obs.Counter
	chunksSplit     *obs.Counter
	chunksAssembled *obs.Counter
	chunksDropped   *obs.Counter
	chunkGauge      *obs.Gauge
}

type recentEntry struct {
	seq     int64
	payload []byte
}

// New creates and registers an instance (dispatch goroutine or pre-Run).
func New(cfg Config) *ABC {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.MaxBatchSize <= 0 {
		cfg.MaxBatchSize = DefaultMaxBatchFactor * cfg.BatchSize
	}
	cfg.MaxBatchSize = max(cfg.MaxBatchSize, cfg.BatchSize)
	a := &ABC{
		cfg:           cfg,
		trust:         cfg.Trust,
		self:          cfg.Router.Self(),
		curBatch:      cfg.BatchSize,
		proposals:     make(map[int64]map[int]SignedProposal),
		mvbas:         make(map[int64]*mvba.MVBA),
		queued:        make(map[[32]byte]bool),
		delivered:     make(map[[32]byte]int64),
		batches:       make(map[batchKey][]byte),
		batchRBCs:     make(map[batchKey]*rbc.RBC),
		pendingDecide: make(map[int64][]byte),
		chunkGroups:   make(map[chunkKey]*chunkGroup),
		span:          obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if a.trust == nil {
		a.trust = trust.NewSymmetric(cfg.Struct)
	}
	switch {
	case cfg.CodedThreshold > 0:
		a.codedThreshold = cfg.CodedThreshold
	case cfg.CodedThreshold == 0:
		a.codedThreshold = DefaultCodedThreshold
	}
	switch {
	case cfg.ChunkSize > 0:
		a.chunkSize = cfg.ChunkSize
	case cfg.ChunkSize == 0:
		a.chunkSize = DefaultChunkSize
	}
	a.round.Store(1)
	if reg := a.span.Registry(); reg != nil {
		a.submitted = make(map[[32]byte]time.Time)
		a.orderLat = reg.Histogram(Protocol + ".latency.order")
		a.batchSize = reg.Gauge(Protocol + ".batch.size")
		a.batchSize.Set(int64(a.curBatch))
		a.gcFreed = reg.Counter("checkpoint.gc.freed")
		a.deliveredSize = reg.Gauge(Protocol + ".delivered.size")
		a.horizonGauge = reg.Gauge(Protocol + ".gc.horizon")
		a.codedProposals = reg.Counter(Protocol + ".coded.proposals")
		a.codedDeferred = reg.Counter(Protocol + ".coded.decides.deferred")
		a.chunksSplit = reg.Counter(Protocol + ".chunks.split")
		a.chunksAssembled = reg.Counter(Protocol + ".chunks.assembled")
		a.chunksDropped = reg.Counter(Protocol + ".chunks.dropped")
		a.chunkGauge = reg.Gauge(Protocol + ".chunks.groups")
	}
	cfg.Router.RegisterSplit(Protocol, cfg.Instance, engine.SplitHandler{
		Verify:      a.verifyMsg,
		Apply:       a.apply,
		VerifyTypes: []string{typeProposal},
	})
	return a
}

// Broadcast a-broadcasts a payload: it will eventually be delivered, in
// the same total order, by every honest party. Safe from any goroutine.
func (a *ABC) Broadcast(payload []byte) error {
	if a.chunkSize > 0 && chunkCount(len(payload), a.chunkSize) > maxChunksPerPayload {
		return fmt.Errorf("abc: payload of %d bytes exceeds %d chunks of %d bytes",
			len(payload), maxChunksPerPayload, a.chunkSize)
	}
	return a.cfg.Router.Loopback(Protocol, a.cfg.Instance, typeSubmit, submitBody{Payload: payload})
}

// Seq returns the number of payloads delivered so far (progress metric).
// Safe from any goroutine.
func (a *ABC) Seq() int64 { return a.seq.Load() }

// Round returns the current round (progress metric). Safe from any
// goroutine.
func (a *ABC) Round() int64 { return a.round.Load() }

// signStatement is the byte string a proposal signature covers.
func (a *ABC) signStatement(p *SignedProposal) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "abc|%s|%d|%d|%d|%d|", a.cfg.Instance, p.Party, p.Round, len(p.Batch), len(p.Ckpt))
	for _, m := range p.Batch {
		d := sha256.Sum256(m)
		h.Write(d[:])
	}
	if len(p.Ckpt) > 0 {
		d := sha256.Sum256(p.Ckpt)
		h.Write(d[:])
	}
	if p.Coded {
		h.Write([]byte("|coded|"))
		h.Write(p.BatchDigest[:])
	}
	return h.Sum(nil)
}

// proposalVerdict is the Verify-stage result for PROPOSAL messages: the
// decoded proposal and whether the proposer's signature checked out.
// Round-window and duplicate checks are stateful and stay in Apply.
type proposalVerdict struct {
	p     SignedProposal
	valid bool
}

// verifyMsg is the parallel Verify stage: proposal signature checks only
// read the immutable identity registry and the instance name, so they are
// safe off the dispatch goroutine.
func (a *ABC) verifyMsg(from int, msgType string, payload []byte) any {
	if msgType != typeProposal {
		return nil
	}
	var p SignedProposal
	// Plain unmarshal, not Router.Decode: the nil-verdict fallback would
	// decode again and double-count router.malformed.
	if wire.UnmarshalBody(payload, &p) != nil {
		return nil
	}
	valid := p.Party == from &&
		a.cfg.Identity.Verify(from, "abc-prop", a.signStatement(&p), p.Sig) == nil
	return &proposalVerdict{p: p, valid: valid}
}

// Handle processes one protocol message without a pipeline verdict (the
// legacy single-stage entry point, kept for tests and direct callers).
func (a *ABC) Handle(from int, msgType string, payload []byte) {
	a.apply(from, msgType, payload, nil)
}

// apply is the serialized Apply stage; a non-nil verdict carries a
// pre-checked proposal signature.
func (a *ABC) apply(from int, msgType string, payload []byte, verdict any) {
	switch msgType {
	case typeSubmit:
		var body submitBody
		if from != a.cfg.Router.Self() || !a.cfg.Router.Decode(payload, &body) {
			return
		}
		a.onSubmit(body.Payload)
	case typeProposal:
		if v, ok := verdict.(*proposalVerdict); ok {
			if v.valid {
				a.onProposalVerified(from, v.p)
			}
			return
		}
		var p SignedProposal
		if !a.cfg.Router.Decode(payload, &p) {
			return
		}
		a.onProposal(from, p)
	}
}

func (a *ABC) onSubmit(payload []byte) {
	if a.chunkSize > 0 && len(payload) > a.chunkSize {
		// Split into deterministic frames: every replica submitting the
		// same payload produces identical frames, so they dedup to one
		// delivery each just like whole payloads do.
		for _, f := range chunkFrames(payload, a.chunkSize) {
			a.enqueue(f)
		}
		if a.chunksSplit != nil {
			a.chunksSplit.Inc()
		}
		return
	}
	a.enqueue(payload)
}

func (a *ABC) enqueue(payload []byte) {
	d := sha256.Sum256(payload)
	if _, done := a.delivered[d]; done || a.queued[d] {
		return
	}
	a.queued[d] = true
	a.queue = append(a.queue, payload)
	if a.submitted != nil {
		a.submitted[d] = time.Now()
		// Sweep periodically on the submit path too: under a flood of
		// payloads that never deliver, no round boundary would otherwise
		// expire the stamps.
		if a.submitsSince++; a.submitsSince >= 256 {
			a.submitsSince = 0
			a.sweepSubmitted(time.Now())
		}
	}
	a.maybeActivate()
}

// sweepSubmitted drops latency stamps older than submittedTTL — payloads
// that never a-delivered (dropped under Byzantine pressure) must not
// grow the map without bound.
func (a *ABC) sweepSubmitted(now time.Time) {
	for d, at := range a.submitted {
		if now.Sub(at) > submittedTTL {
			delete(a.submitted, d)
		}
	}
}

// maybeActivate enters the current round by broadcasting a signed
// proposal, either because this party has pending requests or because
// another party has already opened the round.
func (a *ABC) maybeActivate() {
	if a.active {
		return
	}
	round := a.round.Load()
	if len(a.queue) == 0 && len(a.proposals[round]) == 0 {
		return
	}
	a.active = true
	a.curBatch = adaptBatch(a.curBatch, len(a.queue), a.cfg.BatchSize, a.cfg.MaxBatchSize)
	if a.batchSize != nil {
		a.batchSize.Set(int64(a.curBatch))
	}
	batch := a.queue
	if len(batch) > a.curBatch {
		batch = batch[:a.curBatch]
	}
	p := SignedProposal{
		Party: a.cfg.Router.Self(),
		Round: round,
		Batch: batch,
	}
	if a.cfg.ProvideCheckpoint != nil {
		p.Ckpt = a.cfg.ProvideCheckpoint()
	}
	if a.codedThreshold > 0 && batchBytes(batch) >= a.codedThreshold {
		if blob, err := wire.MarshalBody(batchBlob{Batch: batch}); err == nil {
			p.Coded = true
			p.BatchDigest = sha256.Sum256(blob)
			p.Batch = nil
			// Store our own blob before broadcasting the header, so the
			// loopback proposal counts as available immediately, then
			// disperse the bytes once by coded reliable broadcast.
			a.batches[batchKey{round: round, party: a.self}] = blob
			_ = a.ensureBatchRBC(round, a.self).Start(blob)
			if a.codedProposals != nil {
				a.codedProposals.Inc()
			}
		}
	}
	p.Sig = a.cfg.IDKey.Sign("abc-prop", a.signStatement(&p))
	// A signed proposal is the canonical equivocation surface: one slot
	// per round so a recovered replica re-sends the identical proposal.
	_ = a.cfg.Router.BroadcastJournaled(fmt.Sprintf("prop/%d", round),
		Protocol, a.cfg.Instance, typeProposal, p)
}

func (a *ABC) onProposal(from int, p SignedProposal) {
	if p.Party != from || !a.roundInWindow(p.Round) {
		return
	}
	if _, dup := a.proposals[p.Round][from]; dup {
		return
	}
	if a.cfg.Identity.Verify(from, "abc-prop", a.signStatement(&p), p.Sig) != nil {
		return
	}
	a.acceptProposal(from, p)
}

// onProposalVerified consumes a proposal whose signature the Verify stage
// already checked; only the stateful round/duplicate filters remain.
func (a *ABC) onProposalVerified(from int, p SignedProposal) {
	if !a.roundInWindow(p.Round) {
		return
	}
	if _, dup := a.proposals[p.Round][from]; dup {
		return
	}
	a.acceptProposal(from, p)
}

func (a *ABC) acceptProposal(from int, p SignedProposal) {
	if p.Coded && len(p.Batch) > 0 {
		return // malformed: a coded header must not carry inline payloads
	}
	if a.proposals[p.Round] == nil {
		a.proposals[p.Round] = make(map[int]SignedProposal)
	}
	a.proposals[p.Round][from] = p
	if p.Coded {
		// Open the dispersal instance now so buffered fragments flow.
		a.ensureBatchRBC(p.Round, from)
	}
	if p.Round == a.round.Load() {
		a.maybeActivate()
		a.maybeAgree()
	}
}

// maybeAgree starts the round's multi-valued agreement once a quorum of
// signed proposals has been collected.
func (a *ABC) maybeAgree() {
	round := a.round.Load()
	if !a.active {
		return
	}
	if _, started := a.mvbas[round]; started {
		return
	}
	var parties adversary.Set
	for j := range a.proposals[round] {
		p := a.proposals[round][j]
		// Availability gate: a coded header joins our proposed list only
		// once its batch blob has arrived, so our own agreement value
		// always passes our own external-validity predicate.
		if !a.batchAvailable(&p) {
			continue
		}
		parties = parties.Add(j)
	}
	if !a.trust.IsQuorum(a.self, parties) {
		return
	}
	list := proposalList{Proposals: make([]SignedProposal, 0, len(a.proposals[round]))}
	for _, j := range parties.Members() {
		list.Proposals = append(list.Proposals, a.proposals[round][j])
	}
	value, err := wire.MarshalBody(list)
	if err != nil {
		return
	}
	inst := mvba.New(mvba.Config{
		Router:    a.cfg.Router,
		Struct:    a.cfg.Struct,
		Trust:     a.trust,
		Instance:  fmt.Sprintf("%s/r%d", a.cfg.Instance, round),
		Coin:      a.cfg.Coin,
		CoinKey:   a.cfg.CoinKey,
		Scheme:    a.cfg.Scheme,
		Key:       a.cfg.Key,
		Predicate: func(v []byte) bool { return a.validList(round, v) },
		Decide:    func(v []byte) { a.onDecide(round, v) },
	})
	a.mvbas[round] = inst
	_ = inst.Start(value)
}

// validList is the external validity condition of the paper: the value
// must be a list of properly signed round-r proposals from a quorum of
// distinct parties.
func (a *ABC) validList(round int64, value []byte) bool {
	var list proposalList
	if !a.cfg.Router.Decode(value, &list) {
		return false
	}
	var parties adversary.Set
	for i := range list.Proposals {
		p := &list.Proposals[i]
		if p.Round != round || p.Party < 0 || p.Party >= a.cfg.Router.N() || parties.Has(p.Party) {
			return false
		}
		if p.Coded && len(p.Batch) > 0 {
			return false
		}
		if a.cfg.Identity.Verify(p.Party, "abc-prop", a.signStatement(p), p.Sig) != nil {
			return false
		}
		if p.Coded {
			a.ensureBatchRBC(p.Round, p.Party)
			// Availability gate: we vouch for a list only when every coded
			// batch it references has reached us. A failing check is not
			// final — the agreement layer re-evaluates on blob arrival.
			if !a.batchAvailable(p) {
				return false
			}
		}
		parties = parties.Add(p.Party)
	}
	return a.trust.IsQuorum(a.self, parties)
}

// roundInWindow accepts proposals for the current round up to roundWindow
// rounds ahead: older rounds are settled, and buffering arbitrarily far
// futures would let a Byzantine flood grow the proposals map without
// bound.
func (a *ABC) roundInWindow(round int64) bool {
	cur := a.round.Load()
	return round >= cur && round <= cur+roundWindow
}

// onDecide delivers the decided round's payloads in a deterministic order
// and advances to the next round.
func (a *ABC) onDecide(round int64, value []byte) {
	if round != a.round.Load() {
		return // stale (cannot happen: rounds are sequential)
	}
	var list proposalList
	if !a.cfg.Router.Decode(value, &list) {
		return // cannot happen: the predicate validated the value
	}
	// Resolve coded headers to their batches first. A decide can outrun
	// a batch blob (external validity was checked elsewhere); park it and
	// retry when the blob arrives by reliable-broadcast totality.
	batches := make([][][]byte, len(list.Proposals))
	for i := range list.Proposals {
		b, ok := a.resolveBatch(&list.Proposals[i])
		if !ok {
			a.pendingDecide[round] = value
			if a.codedDeferred != nil {
				a.codedDeferred.Inc()
			}
			return
		}
		batches[i] = b
	}
	delete(a.pendingDecide, round)
	// Collect the union of batches, dedup by digest, order by digest.
	type item struct {
		digest  [32]byte
		payload []byte
	}
	var items []item
	seen := make(map[[32]byte]bool)
	for i := range list.Proposals {
		for _, payload := range batches[i] {
			d := sha256.Sum256(payload)
			if _, done := a.delivered[d]; done || seen[d] {
				continue
			}
			seen[d] = true
			items = append(items, item{digest: d, payload: payload})
		}
	}
	sort.Slice(items, func(i, j int) bool {
		return string(items[i].digest[:]) < string(items[j].digest[:])
	})
	for _, it := range items {
		a.deliverPayload(it.digest, it.payload)
	}
	// Advance the GC horizon: the maximum certified checkpoint carried by
	// the decided proposals, floored by the dedup-history bound. Both inputs
	// are functions of the decided value and the (deterministic) local
	// frontier, so every honest replica prunes identically.
	horizon := a.gcHorizon
	if a.cfg.VerifyCheckpoint != nil {
		for i := range list.Proposals {
			if ck := list.Proposals[i].Ckpt; len(ck) > 0 {
				if s, ok := a.cfg.VerifyCheckpoint(ck); ok && s > horizon {
					horizon = s
				}
			}
		}
	}
	seq := a.seq.Load()
	if seq-dedupHistory > horizon {
		horizon = seq - dedupHistory
	}
	if horizon > a.gcHorizon {
		a.pruneBelow(horizon)
	}
	if a.submitted != nil {
		a.sweepSubmitted(time.Now())
	}
	// Garbage-collect an old round's agreement, then open the next round
	// if there is anything to do.
	delete(a.proposals, round)
	if old, ok := a.mvbas[round-2]; ok {
		old.Halt()
		delete(a.mvbas, round-2)
	}
	a.gcCoded(round)
	a.round.Store(round + 1)
	a.active = false
	// Payloads left over from this round (submitted but not in the decided
	// union) are re-proposed next round in digest order, so retransmission
	// order is deterministic across replicas regardless of arrival order.
	a.sortQueueByDigest()
	if a.cfg.RoundEnd != nil {
		a.cfg.RoundEnd(a.seq.Load(), round+1, a.gcHorizon)
	}
	a.maybeActivate()
	a.maybeAgree()
}

// deliverPayload hands one payload to the application at the next
// sequence number, maintaining the dedup and suffix bookkeeping.
func (a *ABC) deliverPayload(digest [32]byte, payload []byte) {
	seq := a.seq.Add(1) - 1
	a.delivered[digest] = seq
	if a.queued[digest] {
		delete(a.queued, digest)
		a.removeFromQueue(digest)
	}
	if a.cfg.VerifyCheckpoint != nil {
		a.recent = append(a.recent, recentEntry{seq: seq, payload: payload})
		if len(a.recent) > maxRecent {
			a.recent = a.recent[len(a.recent)-maxRecent:]
		}
	}
	a.span.Event(obs.StageDeliver, seq, "")
	if a.submitted != nil {
		if start, ok := a.submitted[digest]; ok {
			delete(a.submitted, digest)
			a.orderLat.ObserveSince(start)
		}
	}
	if a.deliveredSize != nil {
		a.deliveredSize.Set(int64(len(a.delivered)))
	}
	if a.cfg.Deliver == nil {
		return
	}
	if a.chunkSize > 0 {
		if id, idx, total, chunk, ok := parseFrame(payload); ok {
			// A chunk frame feeds the reassembler instead of the app; the
			// assembled payload delivers at the completing frame's seq.
			if assembled, done := a.feedFrame(id, idx, total, chunk); done {
				if a.chunksAssembled != nil {
					a.chunksAssembled.Inc()
				}
				a.cfg.Deliver(seq, assembled)
			}
			return
		}
	}
	a.cfg.Deliver(seq, payload)
}

// pruneBelow advances the GC horizon, dropping delivered-digest history
// and retained suffix entries below it.
func (a *ABC) pruneBelow(horizon int64) {
	a.gcHorizon = horizon
	freed := 0
	for d, s := range a.delivered {
		if s < horizon {
			delete(a.delivered, d)
			freed++
		}
	}
	cut := 0
	for cut < len(a.recent) && a.recent[cut].seq < horizon {
		cut++
	}
	if cut > 0 {
		a.recent = append(a.recent[:0:0], a.recent[cut:]...)
	}
	if a.gcFreed != nil {
		a.gcFreed.Add(int64(freed))
		a.deliveredSize.Set(int64(len(a.delivered)))
		a.horizonGauge.Set(horizon)
	}
}

// SuffixSince returns the retained payloads delivered at sequences
// [from, Seq()) and the current round, or nil when the retention log no
// longer reaches back to from. Dispatch goroutine only.
func (a *ABC) SuffixSince(from int64) ([][]byte, int64) {
	round := a.round.Load()
	if from >= a.seq.Load() {
		return nil, round
	}
	if len(a.recent) == 0 || a.recent[0].seq > from {
		return nil, round
	}
	var payloads [][]byte
	for _, e := range a.recent {
		if e.seq >= from {
			payloads = append(payloads, e.payload)
		}
	}
	return payloads, round
}

// Install adopts a certified checkpoint fetched from a peer: install (if
// non-nil) replaces the application state at sequence base, the suffix
// payloads then re-deliver in order through the normal Deliver path, and
// the round jumps forward to liveRound. A nil install means the local
// state already covers base and only the missing suffix tail replays.
// Returns false when nothing advanced. Dispatch goroutine only.
func (a *ABC) Install(base int64, install func() bool, suffix [][]byte, liveRound int64) bool {
	cur := a.seq.Load()
	live := base + int64(len(suffix))
	if live <= cur && liveRound <= a.round.Load() {
		return false
	}
	skip := int64(0)
	if install != nil {
		if base < cur {
			return false // would rewind state
		}
		if !install() {
			return false
		}
		// The snapshot subsumes all history below base: reset the dedup
		// and suffix bookkeeping wholesale.
		a.delivered = make(map[[32]byte]int64)
		a.recent = nil
		a.seq.Store(base)
		a.gcHorizon = base
		if a.horizonGauge != nil {
			a.horizonGauge.Set(base)
			a.deliveredSize.Set(0)
		}
	} else {
		if base > cur {
			return false // gap: suffix does not reach our frontier
		}
		skip = cur - base
		if skip >= int64(len(suffix)) && liveRound <= a.round.Load() {
			return false
		}
	}
	for _, payload := range suffix[min(skip, int64(len(suffix))):] {
		d := sha256.Sum256(payload)
		if _, done := a.delivered[d]; done {
			continue
		}
		a.deliverPayload(d, payload)
	}
	a.adoptRound(liveRound)
	return true
}

// adoptRound jumps the round counter forward after a checkpoint install,
// discarding agreement state of the skipped rounds. The pending queue is
// re-sorted into ascending-digest order first, so the retransmission of
// still-undelivered payloads proposes them in a deterministic order —
// reproducible across runs under a fixed sim seed.
func (a *ABC) adoptRound(round int64) {
	if round <= a.round.Load() {
		a.maybeActivate()
		a.maybeAgree()
		return
	}
	for r, inst := range a.mvbas {
		if r < round {
			inst.Halt()
			delete(a.mvbas, r)
		}
	}
	for r := range a.proposals {
		if r < round {
			delete(a.proposals, r)
		}
	}
	a.gcCoded(round)
	a.sortQueueByDigest()
	a.round.Store(round)
	a.active = false
	a.maybeActivate()
	a.maybeAgree()
}

// sortQueueByDigest orders the pending queue by payload digest, the same
// order deliveries use.
func (a *ABC) sortQueueByDigest() {
	sort.Slice(a.queue, func(i, j int) bool {
		di, dj := sha256.Sum256(a.queue[i]), sha256.Sum256(a.queue[j])
		return string(di[:]) < string(dj[:])
	})
}

// adaptBatch moves the adaptive batch bound one step per round opening:
// a backlog beyond the current bound doubles it toward the cap (fewer
// agreement rounds per request under load), while a queue that no
// longer fills half the bound halves it back toward the configured
// floor (no oversized bound lingering after a burst). In between, the
// bound holds steady.
func adaptBatch(cur, queued, floor, cap int) int {
	switch {
	case queued > cur:
		return min(2*cur, cap)
	case queued <= cur/2:
		return max(cur/2, floor)
	}
	return cur
}

func (a *ABC) removeFromQueue(d [32]byte) {
	for i, payload := range a.queue {
		if sha256.Sum256(payload) == d {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return
		}
	}
}
