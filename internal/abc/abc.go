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
// Because the decided list names a quorum of signed proposals, messages
// from honest parties cannot be forged, and a message known to enough
// honest parties cannot be delayed forever (fairness). Atomic broadcast
// is equivalent to Byzantine agreement in this model and correspondingly
// more expensive than reliable broadcast — the architecture uses it
// exactly where total order is required.
package abc

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/engine"
	"sintra/internal/identity"
	"sintra/internal/mvba"
	"sintra/internal/obs"
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
	typeFetch    = "FETCH"
	typePayload  = "PAYLOAD"
)

// payloadBody is a local SUBMIT, or the PAYLOAD answer to a FETCH.
type payloadBody struct {
	Payload []byte
}

// SignedProposal is one party's signed batch for a round; lists of these
// are the values fed to multi-valued agreement.
type SignedProposal struct {
	// Party is the proposer.
	Party int
	// Round is the atomic-broadcast round.
	Round int64
	// Batch holds the proposed payloads carried inline (possibly none,
	// for parties that join a round without pending requests).
	Batch [][]byte
	// Refs is the concatenation of the SHA-256 digests of the proposed
	// payloads carried by reference: the proposer holds the bytes and
	// every replica resolves them from its own store (store.go).
	Refs []byte
	// Ckpt optionally piggybacks the proposer's latest stable checkpoint
	// certificate (wire-encoded). Folding it into the decided value makes
	// the garbage-collection horizon part of the agreed round output, so
	// every honest replica prunes at the same point.
	Ckpt []byte
	// Sig is the proposer's individual signature over (round, the digest
	// of every inline and referenced payload, checkpoint).
	Sig []byte
}

// accepted is a proposal whose signature checked out: the SHA-256 of its
// wire encoding, the name agreement values give it, with the digests of
// its payloads — inline ones first, hashed once on arrival, then the
// referenced ones. The encoding itself is kept only in the store.
type accepted struct {
	p       SignedProposal
	digest  [32]byte
	digests [][32]byte
}

func (ac *accepted) refs() [][32]byte { return ac.digests[len(ac.p.Batch):] }

// proposalList is the value fed to multi-valued agreement: the digests of
// the chosen signed proposals, which every party was sent as PROPOSALs.
type proposalList struct {
	Proposals [][32]byte
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
	// Deliver is called for every a-delivered payload, exactly as it was
	// submitted, in the same order on every honest party. Sequence numbers
	// are consecutive from 0 (or from an installed checkpoint's base), and
	// each one reaches Deliver.
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
	// CodedThreshold is the payload size in bytes from which this party's
	// proposals reference a payload by digest instead of embedding it.
	// 0 selects DefaultCodedThreshold; negative embeds every payload.
	// Local: proposals are self-describing, receivers need not agree.
	CodedThreshold int
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

	proposals map[int64]map[int]*accepted
	// checked holds every proposal this party verified, by digest, until
	// its round decides: the ones it was sent and the ones a list made it
	// fetch, equivocations included.
	checked map[[32]byte]*accepted
	mvbas   map[int64]*mvba.MVBA

	// By-reference state (store.go): resolved threshold (0 = embed all),
	// the digest-keyed payload store, and the current round's decide
	// while it is parked on a referenced payload still missing.
	codedThreshold int
	store          map[[32]byte]*held
	parked         []byte

	// queue lists the digests of the locally submitted payloads awaiting
	// delivery, in proposal order; the bytes are in the store.
	queue [][32]byte
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

	codedProposals *obs.Counter
	codedDeferred  *obs.Counter
	fetchSent      *obs.Counter
	fetchServed    *obs.Counter
	fetchRejected  *obs.Counter
	storeSize      *obs.Gauge
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
	cfg.BatchSize = min(cfg.BatchSize, maxProposalEntries)
	cfg.MaxBatchSize = min(max(cfg.MaxBatchSize, cfg.BatchSize), maxProposalEntries)
	a := &ABC{
		cfg:       cfg,
		trust:     cfg.Trust,
		self:      cfg.Router.Self(),
		curBatch:  cfg.BatchSize,
		proposals: make(map[int64]map[int]*accepted),
		checked:   make(map[[32]byte]*accepted),
		mvbas:     make(map[int64]*mvba.MVBA),
		delivered: make(map[[32]byte]int64),
		store:     make(map[[32]byte]*held),
		span:      obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if a.trust == nil {
		a.trust = trust.NewSymmetric(cfg.Struct)
	}
	if a.codedThreshold = max(cfg.CodedThreshold, 0); cfg.CodedThreshold == 0 {
		a.codedThreshold = DefaultCodedThreshold
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
		a.fetchSent = reg.Counter(Protocol + ".fetch.sent")
		a.fetchServed = reg.Counter(Protocol + ".fetch.served")
		a.fetchRejected = reg.Counter(Protocol + ".fetch.rejected")
		a.storeSize = reg.Gauge(Protocol + ".store.size")
	}
	cfg.Router.RegisterSplit(Protocol, cfg.Instance, engine.SplitHandler{
		Verify:      a.verifyMsg,
		Apply:       a.apply,
		VerifyTypes: []string{typeProposal},
	})
	return a
}

// Broadcast a-broadcasts a payload: it will eventually be delivered, in
// the same total order, by every honest party. Safe from any goroutine
// (it crosses to the dispatch goroutine as a loopback message); callers
// already on it use Submit.
func (a *ABC) Broadcast(payload []byte) error {
	return a.cfg.Router.Loopback(Protocol, a.cfg.Instance, typeSubmit, payloadBody{Payload: payload})
}

// Submit is Broadcast for callers on the dispatch goroutine: the payload
// is queued in place, without a trip through the codec and the network.
func (a *ABC) Submit(payload []byte) { a.enqueue(payload) }

// Seq returns the number of payloads delivered so far (progress metric).
// Safe from any goroutine.
func (a *ABC) Seq() int64 { return a.seq.Load() }

// Round returns the current round (progress metric). Safe from any
// goroutine.
func (a *ABC) Round() int64 { return a.round.Load() }

// signStatement is the byte string a proposal signature covers; digests
// are those of the inline payloads followed by the referenced ones.
func (a *ABC) signStatement(p *SignedProposal, digests [][32]byte) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "abc|%s|%d|%d|%d|%d|%d|", a.cfg.Instance, p.Party, p.Round, len(p.Batch), len(digests), len(p.Ckpt))
	for i := range digests {
		h.Write(digests[i][:])
	}
	if len(p.Ckpt) > 0 {
		d := sha256.Sum256(p.Ckpt)
		h.Write(d[:])
	}
	return h.Sum(nil)
}

// check hashes a received proposal, decoded from raw, and its inline
// payloads and verifies the proposer's signature over them and the
// referenced digests; nil for a malformed proposal or a bad signature. It
// only reads the immutable identity registry and the instance name, so it
// is safe off the dispatch goroutine.
func (a *ABC) check(p SignedProposal, raw []byte) *accepted {
	n := len(p.Batch) + len(p.Refs)/sha256.Size
	if len(p.Refs)%sha256.Size != 0 || n > maxProposalEntries || p.Party < 0 || p.Party >= a.cfg.Router.N() {
		return nil
	}
	ac := &accepted{p: p, digest: sha256.Sum256(raw), digests: make([][32]byte, 0, n)}
	for _, m := range p.Batch {
		ac.digests = append(ac.digests, sha256.Sum256(m))
	}
	for i := 0; i < len(p.Refs); i += sha256.Size {
		ac.digests = append(ac.digests, [32]byte(p.Refs[i:]))
	}
	if a.cfg.Identity.Verify(p.Party, "abc-prop", a.signStatement(&p, ac.digests), p.Sig) != nil {
		return nil
	}
	return ac
}

// resolve finds the round-r proposal an agreement value names by digest:
// one already checked, or bytes in the store, checked here. held is false
// when the bytes are missing; ac is nil when they are not a validly signed
// round-r proposal.
func (a *ABC) resolve(round int64, d [32]byte) (ac *accepted, held bool) {
	if ac = a.checked[d]; ac == nil {
		e := a.store[d]
		if e == nil || e.payload == nil {
			return nil, false
		}
		var p SignedProposal
		if wire.UnmarshalBody(e.payload, &p) == nil && p.Round == round {
			if ac = a.check(p, e.payload); ac != nil {
				a.checked[d] = ac
			}
		}
	}
	if ac == nil || ac.p.Round != round {
		return nil, true
	}
	return ac, true
}

// verifyMsg is the parallel Verify stage for PROPOSAL messages: its
// verdict is the checked proposal, a nil *accepted when it is malformed or
// its signature failed. The round-window and duplicate checks are
// stateful and stay in Apply.
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
	if p.Party != from {
		return (*accepted)(nil)
	}
	return a.check(p, payload)
}

// apply is the serialized Apply stage; a non-nil verdict carries a
// proposal the Verify stage already checked.
func (a *ABC) apply(from int, msgType string, payload []byte, verdict any) {
	switch msgType {
	case typeSubmit:
		var body payloadBody
		if from != a.self || !a.cfg.Router.Decode(payload, &body) {
			return
		}
		a.enqueue(body.Payload)
	case typeProposal:
		if ac, ok := verdict.(*accepted); ok {
			if ac != nil {
				a.acceptProposal(from, ac, payload)
			}
			return
		}
		var p SignedProposal
		if !a.cfg.Router.Decode(payload, &p) || p.Party != from || !a.fresh(p.Round, from) {
			return
		}
		if ac := a.check(p, payload); ac != nil {
			a.acceptProposal(from, ac, payload)
		}
	case typeFetch:
		var body fetchBody
		if a.cfg.Router.Decode(payload, &body) {
			a.onFetch(from, body.Digest)
		}
	case typePayload:
		var body payloadBody
		if a.cfg.Router.Decode(payload, &body) {
			a.onPayload(body.Payload)
		}
	}
}

// enqueue hashes a submitted payload — the one time it is hashed here —
// and queues it for proposal, keeping the bytes in the store.
func (a *ABC) enqueue(payload []byte) {
	d := sha256.Sum256(payload)
	if _, done := a.delivered[d]; done {
		return
	}
	e := a.store[d]
	// A proposal may have referenced it before the client's copy got here.
	wanted := e != nil && e.payload == nil
	if e = a.entry(d); e.queued {
		return
	}
	e.queued, e.payload = true, payload
	a.queue = append(a.queue, d)
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
	if wanted {
		a.payloadArrived()
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
	a.batchSize.Set(int64(a.curBatch))
	p := SignedProposal{Party: a.self, Round: round}
	batch := a.queue[:min(len(a.queue), a.curBatch)]
	inline := make([][32]byte, 0, len(batch))
	var refs [][32]byte
	for _, d := range batch {
		e := a.store[d]
		if a.codedThreshold > 0 && len(e.payload) >= a.codedThreshold {
			refs = append(refs, d)
			p.Refs = append(p.Refs, d[:]...)
		} else {
			inline = append(inline, d)
			p.Batch = append(p.Batch, e.payload)
		}
	}
	if len(refs) > 0 {
		a.codedProposals.Inc()
	}
	if a.cfg.ProvideCheckpoint != nil {
		p.Ckpt = a.cfg.ProvideCheckpoint()
	}
	p.Sig = a.cfg.IDKey.Sign("abc-prop", a.signStatement(&p, append(inline, refs...)))
	// A signed proposal is the canonical equivocation surface: one slot
	// per round so a recovered replica re-sends the identical proposal.
	_ = a.cfg.Router.BroadcastJournaled(fmt.Sprintf("prop/%d", round),
		Protocol, a.cfg.Instance, typeProposal, p)
}

// fresh is the stateful filter on proposals: the proposer has none
// recorded for the round yet, and the round is the current one or at most
// roundWindow ahead — older rounds are settled, and buffering arbitrarily
// far futures would let a Byzantine flood grow the proposals map without
// bound.
func (a *ABC) fresh(round int64, from int) bool {
	cur := a.round.Load()
	return round >= cur && round <= cur+roundWindow && a.proposals[round][from] == nil
}

// acceptProposal records a checked proposal, and keeps its encoding raw in
// the store, where lists resolve it and peers that lack it fetch it.
func (a *ABC) acceptProposal(from int, ac *accepted, raw []byte) {
	round := ac.p.Round
	if !a.fresh(round, from) {
		return
	}
	if a.proposals[round] == nil {
		a.proposals[round] = make(map[int]*accepted)
	}
	a.proposals[round][from] = ac
	a.checked[ac.digest] = ac
	e := a.store[ac.digest]
	wanted := e != nil && e.payload == nil
	e = a.entry(ac.digest)
	e.payload, e.expire = raw, max(e.expire, round+storeLag)
	if round == a.round.Load() {
		a.want(round, from, ac.refs())
		a.maybeActivate()
		a.maybeAgree()
	}
	if wanted {
		a.payloadArrived()
	}
}

// enterRound opens the round the counter was just moved to: payloads
// referenced by proposals buffered for it are asked for, then the party
// proposes and agrees if there is anything to do.
func (a *ABC) enterRound() {
	a.active = false
	a.parked = nil
	round := a.round.Load()
	for from := 0; from < a.cfg.Router.N(); from++ {
		if ac := a.proposals[round][from]; ac != nil {
			a.want(round, from, ac.refs())
		}
	}
	a.maybeActivate()
	a.maybeAgree()
}

// maybeAgree starts the round's multi-valued agreement once a quorum of
// signed proposals has been collected.
func (a *ABC) maybeAgree() {
	round := a.round.Load()
	if _, started := a.mvbas[round]; started || !a.active {
		return
	}
	var parties adversary.Set
	for j, ac := range a.proposals[round] {
		// Availability gate: a proposal joins our list only once every
		// payload it references is here, so our own agreement value always
		// passes our own external-validity predicate.
		if a.allHeld(ac.refs()) {
			parties = parties.Add(j)
		}
	}
	if !a.trust.IsQuorum(a.self, parties) {
		return
	}
	list := proposalList{Proposals: make([][32]byte, 0, parties.Count())}
	for _, j := range parties.Members() {
		list.Proposals = append(list.Proposals, a.proposals[round][j].digest)
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
		Leader:    int(round % int64(a.cfg.Router.N())),
		Coin:      a.cfg.Coin,
		CoinKey:   a.cfg.CoinKey,
		Scheme:    a.cfg.Scheme,
		Key:       a.cfg.Key,
		Predicate: func(v []byte, from int) bool { return a.validList(round, v, from) },
		Decide:    func(v []byte) { a.onDecide(round, v) },
	})
	a.mvbas[round] = inst
	_ = inst.Start(value)
}

// validList is the external validity condition of the paper: the value
// must name properly signed round-r proposals from a quorum of distinct
// parties — and, the availability gate, those proposals and every payload
// they reference must be here. That part is not final: what is missing is
// asked of from, the party that proposes the list for agreement, and the
// agreement layer re-evaluates when it arrives.
func (a *ABC) validList(round int64, value []byte, from int) bool {
	var list proposalList
	if !a.cfg.Router.Decode(value, &list) || len(list.Proposals) > a.cfg.Router.N() {
		return false
	}
	for i, d := range list.Proposals {
		if slices.Contains(list.Proposals[:i], d) {
			return false
		}
	}
	var parties adversary.Set
	var refs, missing [][32]byte
	for _, d := range list.Proposals {
		ac, held := a.resolve(round, d)
		if !held {
			missing = append(missing, d)
			continue
		}
		if ac == nil || parties.Has(ac.p.Party) {
			return false
		}
		refs = append(refs, ac.refs()...)
		parties = parties.Add(ac.p.Party)
	}
	if len(missing) == 0 {
		if !a.trust.IsQuorum(a.self, parties) {
			return false
		}
		if a.allHeld(refs) {
			return true
		}
	}
	if round == a.round.Load() {
		a.want(round, from, append(missing, refs...))
	}
	return false
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
	// Resolve the named proposals, then collect the union of their
	// undelivered payloads by digest: the inline ones first, then the
	// referenced ones from the store.
	type item struct {
		digest  [32]byte
		payload []byte
	}
	var items []item
	var acs []*accepted
	var refs, missing [][32]byte
	for _, d := range list.Proposals {
		if ac, held := a.resolve(round, d); !held {
			missing = append(missing, d)
		} else if ac != nil { // else cannot happen: a quorum validated the list
			acs = append(acs, ac)
		}
	}
	seen := make(map[[32]byte]bool)
	add := func(d [32]byte, payload []byte, here bool) {
		if _, done := a.delivered[d]; done || seen[d] {
			return
		}
		seen[d] = true
		if here {
			items = append(items, item{digest: d, payload: payload})
		} else {
			missing = append(missing, d)
		}
	}
	for _, ac := range acs {
		for k, payload := range ac.p.Batch {
			add(ac.digests[k], payload, true)
		}
		refs = append(refs, ac.refs()...)
	}
	for _, d := range refs {
		if e := a.store[d]; e != nil && e.payload != nil {
			add(d, e.payload, true)
		} else {
			add(d, nil, false)
		}
	}
	if len(missing) > 0 {
		// A decide can outrun a proposal or a referenced payload (external
		// validity was checked elsewhere, at a quorum): park it and ask
		// everyone.
		if a.parked == nil {
			a.codedDeferred.Inc()
		}
		a.parked = value
		a.want(round, -1, missing)
		return
	}
	sort.Slice(items, func(i, j int) bool {
		return bytes.Compare(items[i].digest[:], items[j].digest[:]) < 0
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
		for _, ac := range acs {
			if ck := ac.p.Ckpt; len(ck) > 0 {
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
	// Garbage-collect an old round's agreement and the payloads whose lag
	// has run out, then open the next round if there is anything to do.
	a.forget(round + 1)
	if old, ok := a.mvbas[round-storeLag]; ok {
		old.Halt()
		delete(a.mvbas, round-storeLag)
	}
	a.retireStore(round)
	a.round.Store(round + 1)
	// Payloads left over from this round (submitted but not in the decided
	// union) are re-proposed next round.
	a.settleQueue()
	if a.cfg.RoundEnd != nil {
		a.cfg.RoundEnd(a.seq.Load(), round+1, a.gcHorizon)
	}
	a.enterRound()
}

// deliverPayload hands one payload to the application at the next
// sequence number, maintaining the dedup and suffix bookkeeping.
func (a *ABC) deliverPayload(digest [32]byte, payload []byte) {
	seq := a.seq.Add(1) - 1
	a.delivered[digest] = seq
	if e := a.store[digest]; e != nil {
		// Delivered: out of the queue (settleQueue), retained for laggards.
		e.queued = false
		e.expire = a.round.Load() + storeLag
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
	a.deliveredSize.Set(int64(len(a.delivered)))
	if a.cfg.Deliver != nil {
		a.cfg.Deliver(seq, payload)
	}
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
	a.gcFreed.Add(int64(freed))
	a.deliveredSize.Set(int64(len(a.delivered)))
	a.horizonGauge.Set(horizon)
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
		a.horizonGauge.Set(base)
		a.deliveredSize.Set(0)
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
	a.settleQueue()
	a.adoptRound(liveRound)
	return true
}

// adoptRound jumps the round counter forward after a checkpoint install,
// discarding agreement state of the skipped rounds.
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
	a.forget(round)
	a.retireStore(round - 1)
	a.round.Store(round)
	a.enterRound()
}

// forget drops the proposals, received and checked, of rounds below r.
func (a *ABC) forget(r int64) {
	for pr := range a.proposals {
		if pr < r {
			delete(a.proposals, pr)
		}
	}
	for d, ac := range a.checked {
		if ac.p.Round < r {
			delete(a.checked, d)
		}
	}
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
