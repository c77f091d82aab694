// Package checkpoint implements checkpoint-based garbage collection and
// state transfer for the replicated services. Every CheckpointInterval
// a-delivered payloads, each replica threshold-signs a digest of
// (sequence number, round, service-state hash); a combined certificate
// of signature shares establishes a *stable checkpoint*, below which the
// ordering layers prune their history and above which a lagging or
// restarted replica can rejoin by fetching the certified snapshot plus
// the post-checkpoint delivery suffix from any single peer.
//
// The certificate reuses the service's answer-signature scheme (its
// statement space is domain-separated by the "ckpt|" prefix), so state
// transfer needs no trust assumptions beyond those the service's signed
// answers already rest on: a certificate proves that parties beyond the
// adversary structure's reach — hence at least one honest replica —
// attested the state hash, and sha256 binds the transferred snapshot
// bytes to it. The post-checkpoint suffix cannot carry a certificate
// yet; it is installed tentatively and audited against the next stable
// checkpoint (see Tracker.RoundEnd), so a poisoned suffix is detected
// and re-fetched rather than silently signed for.
package checkpoint

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Protocol is the wire protocol name of the checkpoint subsystem.
const Protocol = "ckpt"

// Message types.
const (
	typeShare = "SHARE" // one replica's signature share on a checkpoint
	typeFetch = "FETCH" // catch-up request from a lagging replica
	typeState = "STATE" // certificate + snapshot + delivery suffix
)

const (
	// maxPendingCheckpoints bounds the uncertified (seq, round, hash)
	// candidates a tracker collects shares for; beyond it, the candidate
	// with the fewest shares is evicted (Byzantine replicas flooding
	// fabricated checkpoint hashes cannot grow the map).
	maxPendingCheckpoints = 16
	// maxVerifiedCache bounds the certificate-verification memo
	// (VerifyEncoded is called for every piggybacked proposal, usually
	// with the same bytes).
	maxVerifiedCache = 128
	// maxRoundSlack bounds how far beyond what the suffix length can
	// explain a peer may claim the live round has advanced (empty rounds
	// deliver nothing but still advance the round counter).
	maxRoundSlack = 64
)

// Checkpoint is a certified service state position: after the first Seq
// a-delivered payloads, at the end of round Round, the service state
// hashed to Hash; Cert is the threshold signature over Statement.
type Checkpoint struct {
	Seq   int64
	Round int64
	Hash  [32]byte
	Cert  []byte
}

// Statement is the byte string a checkpoint certificate signs. The
// "ckpt|" prefix domain-separates it from the "svcresp|" answer
// statements signed with the same keys.
func Statement(instance string, seq, round int64, hash [32]byte) []byte {
	return fmt.Appendf(nil, "ckpt|%s|%d|%d|%x", instance, seq, round, hash)
}

type shareBody struct {
	Seq   int64
	Round int64
	Hash  [32]byte
	Share thresig.Share
}

type fetchBody struct {
	// HaveSeq is the requester's current delivery frontier; peers only
	// answer with a strictly newer stable checkpoint.
	HaveSeq int64
}

type stateBody struct {
	Seq      int64
	Round    int64
	Hash     [32]byte
	Cert     []byte
	Snapshot []byte
	// Suffix holds the payloads a-delivered at sequences
	// [Seq, Seq+len(Suffix)), letting the fetcher catch up past the
	// checkpoint to the peer's live frontier. Empty when the peer's
	// retained suffix no longer reaches back to Seq.
	Suffix [][]byte
	// LiveRound is the peer's current round at serve time.
	LiveRound int64
}

// Config wires one checkpoint tracker.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Instance names the replicated service (same instance string as the
	// ordering layer).
	Instance string
	// Scheme and Key are the answer-signature threshold scheme and this
	// party's share key (deal.Public.AnswerSig / PartySecret.SigAnswer).
	Scheme thresig.Scheme
	Key    *thresig.SecretKey
	// Trust, when set, additionally requires the share senders behind a
	// combined checkpoint certificate to contain an honest party in this
	// party's own view (trust.Quorums.HasHonest). Under symmetric trust
	// this coincides with the answer-signature scheme's opening rule, so
	// nil — the default — changes nothing; asymmetric deployments pass
	// their backend so certificates reflect each party's own assumptions.
	Trust trust.Quorums
	// Interval is the checkpoint period in delivered payloads.
	Interval int64
	// Snapshot captures the deterministic service state (called on the
	// dispatch goroutine at a round boundary).
	Snapshot func() []byte
	// CurrentSeq reports the local delivery frontier.
	CurrentSeq func() int64
	// Suffix returns the retained payloads delivered at sequences
	// [from, liveSeq) together with the current round, or nil when the
	// retention log no longer reaches back to from.
	Suffix func(from int64) (payloads [][]byte, liveRound int64)
	// Install adopts a fetched checkpoint: certified snapshot, the
	// (tentative) delivery suffix, and the serving peer's round. It
	// returns false when the local state is already ahead. Nil disables
	// catch-up (the tracker still certifies and serves checkpoints).
	Install func(cp Checkpoint, snapshot []byte, suffix [][]byte, liveRound int64) bool
	// OnStable fires whenever the stable checkpoint advances — the GC
	// hook for the layers above.
	OnStable func(cp Checkpoint)
	// RetryInterval re-arms catch-up while the replica remains a full
	// interval behind the newest observed stable checkpoint: each tick
	// re-sends the FETCH to one peer, rotating through the membership,
	// so a serving peer that dies mid-transfer cannot stall the lagging
	// replica forever. Zero selects the default (2s); negative disables
	// retries.
	RetryInterval time.Duration
}

// defaultRetryInterval is the catch-up retry period when the
// configuration leaves RetryInterval zero.
const defaultRetryInterval = 2 * time.Second

// maxServesPerCheckpoint bounds how many STATE replies one requester
// can draw for the same stable checkpoint — enough that lost replies
// and retries converge, small enough that a Byzantine requester cannot
// turn retries into a snapshot flood.
const maxServesPerCheckpoint = 3

// enough reports whether the signers of the shares meet the scheme's
// opening rule and the optional trust-backend gate; a nil backend keeps
// the opening rule as the only condition.
func (t *Tracker) enough(shares []thresig.Share) bool {
	var parties adversary.Set
	for _, sh := range shares {
		parties = parties.Add(sh.Party)
	}
	return t.cfg.Scheme.Sufficient(parties) &&
		(t.cfg.Trust == nil || t.cfg.Trust.HasHonest(t.cfg.Router.Self(), parties))
}

// pendKey identifies one uncertified checkpoint candidate.
type pendKey struct {
	seq   int64
	round int64
	hash  [32]byte
}

// pendShares are the unverified shares on one candidate; from are their
// senders and those of shares a failed combine dropped.
type pendShares struct {
	from   adversary.Set
	shares []thresig.Share
}

// Tracker runs the checkpoint protocol for one service instance. All
// state is dispatch-goroutine only.
type Tracker struct {
	cfg Config

	stable    Checkpoint
	stableEnc []byte
	// snap is the snapshot matching stable (nil when the stable
	// certificate arrived without one, e.g. via piggyback).
	snap []byte

	// own* record the replica's latest locally taken checkpoint, pending
	// certification (and auditing the certified hash against our own).
	ownSeq   int64
	ownRound int64
	ownHash  [32]byte
	ownSnap  []byte

	lastTaken int64
	// tentative marks state installed from an unaudited delivery suffix:
	// the tracker withholds its own checkpoint shares until a stable
	// certificate confirms the local hash, so a poisoned suffix can never
	// contribute to a quorum certifying wrong state.
	tentative bool
	// lastFetch dedups FETCH broadcasts per observed stable seq;
	// distrust remembers the peer that served a suffix we later found
	// divergent, so its next STATE is skipped once.
	lastFetch       int64
	lastInstallFrom int
	distrust        int
	// retryArmed marks a pending catch-up retry timer; retryPeer is the
	// rotation cursor over peers for retry FETCHes.
	retryArmed bool
	retryPeer  int

	pend map[pendKey]*pendShares
	// served bounds STATE replies per requester and stable seq
	// (maxServesPerCheckpoint); wanting remembers fetches that arrived
	// before a servable checkpoint existed, answered as soon as one
	// does.
	served  map[int]serveRec
	wanting map[int]int64

	verified      map[[32]byte]int64
	verifiedOrder [][32]byte

	stableSeq  *obs.Gauge
	certs      *obs.Counter
	sharesSent *obs.Counter
	sharesRecv *obs.Counter
	fetches    *obs.Counter
	retries    *obs.Counter
	installs   *obs.Counter
	diverged   *obs.Counter
}

// serveRec is the per-requester serve bookkeeping: how many STATE
// replies went out for which stable checkpoint.
type serveRec struct {
	seq   int64
	count int
}

// New creates and registers a tracker (dispatch goroutine or pre-Run).
func New(cfg Config) *Tracker {
	if cfg.RetryInterval == 0 {
		cfg.RetryInterval = defaultRetryInterval
	}
	t := &Tracker{
		cfg:             cfg,
		pend:            make(map[pendKey]*pendShares),
		served:          make(map[int]serveRec),
		wanting:         make(map[int]int64),
		verified:        make(map[[32]byte]int64),
		lastInstallFrom: -1,
		distrust:        -1,
		retryPeer:       cfg.Router.Self(),
	}
	if reg := cfg.Router.Observer(); reg != nil {
		t.stableSeq = reg.Gauge("checkpoint.stable.seq")
		t.certs = reg.Counter("checkpoint.certs")
		t.sharesSent = reg.Counter("checkpoint.shares.sent")
		t.sharesRecv = reg.Counter("checkpoint.shares.recv")
		t.fetches = reg.Counter("checkpoint.catchup.fetches")
		t.retries = reg.Counter("checkpoint.catchup.retries")
		t.installs = reg.Counter("checkpoint.catchup.installs")
		t.diverged = reg.Counter("checkpoint.diverged")
	}
	cfg.Router.Register(Protocol, cfg.Instance, t.handle)
	return t
}

// Stable returns the latest stable checkpoint (dispatch goroutine only).
func (t *Tracker) Stable() Checkpoint { return t.stable }

// Tentative reports whether the local state came from an unaudited
// delivery suffix (dispatch goroutine only; tests).
func (t *Tracker) Tentative() bool { return t.tentative }

// EncodedStable returns the wire encoding of the latest stable
// checkpoint for piggybacking on ordering-layer proposals, or nil before
// the first certificate forms. Dispatch goroutine only.
func (t *Tracker) EncodedStable() []byte { return t.stableEnc }

// VerifyEncoded checks a piggybacked checkpoint encoding and returns its
// sequence number. Verification is memoized (the same certificate
// arrives once per proposer per round), and a valid certificate newer
// than the local stable checkpoint is adopted on the spot — piggybacking
// thus propagates stability to replicas that missed the share exchange.
// Dispatch goroutine only. The result depends only on the bytes, never
// on tracker state, so it is deterministic across replicas (the ordering
// layer folds it into the decided GC horizon).
func (t *Tracker) VerifyEncoded(enc []byte) (seq int64, ok bool) {
	if len(enc) == 0 {
		return 0, false
	}
	key := sha256.Sum256(enc)
	if s, hit := t.verified[key]; hit {
		return s, true
	}
	var cp Checkpoint
	if wire.UnmarshalBody(enc, &cp) != nil {
		return 0, false
	}
	if t.cfg.Scheme.Verify(Statement(t.cfg.Instance, cp.Seq, cp.Round, cp.Hash), cp.Cert) != nil {
		return 0, false
	}
	t.verified[key] = cp.Seq
	t.verifiedOrder = append(t.verifiedOrder, key)
	if len(t.verifiedOrder) > maxVerifiedCache {
		delete(t.verified, t.verifiedOrder[0])
		t.verifiedOrder = t.verifiedOrder[1:]
	}
	t.setStable(cp, nil)
	return cp.Seq, true
}

// RoundEnd drives the tracker from the ordering layer's round boundary:
// when Interval deliveries have accumulated since the last checkpoint,
// it snapshots the service, signs the checkpoint statement, and
// broadcasts the share. Dispatch goroutine only.
func (t *Tracker) RoundEnd(seq, round int64) {
	if t.cfg.Interval <= 0 || seq-t.lastTaken < t.cfg.Interval {
		return
	}
	t.lastTaken = seq
	snap := t.cfg.Snapshot()
	if snap == nil {
		return
	}
	t.ownSeq, t.ownRound, t.ownHash, t.ownSnap = seq, round, sha256.Sum256(snap), snap
	if t.tentative {
		// State from an unaudited suffix: record the hash for the audit
		// but do not sign — a diverged replica must not help certify.
		return
	}
	share, err := t.cfg.Scheme.SignShare(t.cfg.Key,
		Statement(t.cfg.Instance, seq, round, t.ownHash), rand.Reader)
	if err != nil {
		return
	}
	if t.sharesSent != nil {
		t.sharesSent.Inc()
	}
	// One signed share per checkpoint seq: two different hashes for the
	// same seq from one replica would poison certificate assembly.
	_ = t.cfg.Router.BroadcastJournaled(fmt.Sprintf("share/%d", seq),
		Protocol, t.cfg.Instance, typeShare, shareBody{
			Seq: seq, Round: round, Hash: t.ownHash, Share: share,
		})
}

// RequestCatchUp asks every peer for its latest stable checkpoint — the
// entry point for a restarted replica. Safe before Run.
func (t *Tracker) RequestCatchUp() {
	if t.cfg.Install == nil {
		return
	}
	t.broadcastFetch()
}

func (t *Tracker) broadcastFetch() {
	if t.fetches != nil {
		t.fetches.Inc()
	}
	body := fetchBody{HaveSeq: t.cfg.CurrentSeq()}
	self := t.cfg.Router.Self()
	for j := 0; j < t.cfg.Router.N(); j++ {
		if j != self {
			_ = t.cfg.Router.Send(j, Protocol, t.cfg.Instance, typeFetch, body)
		}
	}
	t.scheduleRetry()
}

// scheduleRetry arms the catch-up retry timer (at most one pending).
// The timer hops back onto the dispatch goroutine via Router.Do, so
// all tracker state stays single-threaded.
func (t *Tracker) scheduleRetry() {
	if t.cfg.RetryInterval < 0 || t.cfg.Install == nil || t.retryArmed {
		return
	}
	t.retryArmed = true
	time.AfterFunc(t.cfg.RetryInterval, func() {
		t.cfg.Router.Do(t.retryFetch)
	})
}

// retryFetch re-sends the FETCH while the replica is still a full
// interval behind the newest observed stable sequence. Unlike the
// initial broadcast it targets a single peer per tick, rotating
// through the membership: if the peer that should have answered died
// mid-transfer, the next tick tries its neighbour instead of hammering
// everyone.
func (t *Tracker) retryFetch() {
	t.retryArmed = false
	if t.cfg.Interval <= 0 || t.lastFetch < t.cfg.CurrentSeq()+t.cfg.Interval {
		return // caught up (or nothing observed): stand down
	}
	if t.retries != nil {
		t.retries.Inc()
	}
	self := t.cfg.Router.Self()
	n := t.cfg.Router.N()
	for i := 0; i < n; i++ {
		t.retryPeer = (t.retryPeer + 1) % n
		if t.retryPeer != self {
			break
		}
	}
	_ = t.cfg.Router.Send(t.retryPeer, Protocol, t.cfg.Instance, typeFetch,
		fetchBody{HaveSeq: t.cfg.CurrentSeq()})
	t.scheduleRetry()
}

func (t *Tracker) handle(from int, msgType string, payload []byte) {
	if from < 0 || from >= t.cfg.Router.N() {
		return // servers only
	}
	switch msgType {
	case typeShare:
		var body shareBody
		if t.cfg.Router.Decode(payload, &body) {
			t.onShare(from, body)
		}
	case typeFetch:
		var body fetchBody
		if t.cfg.Router.Decode(payload, &body) {
			t.onFetch(from, body)
		}
	case typeState:
		var body stateBody
		if t.cfg.Router.Decode(payload, &body) {
			t.onState(from, body)
		}
	}
}

func (t *Tracker) onShare(from int, body shareBody) {
	// Shares are combined unverified; the transport authenticates from.
	if body.Seq <= t.stable.Seq || body.Share.Party != from {
		return
	}
	if t.sharesRecv != nil {
		t.sharesRecv.Inc()
	}
	key := pendKey{body.Seq, body.Round, body.Hash}
	ps := t.pend[key]
	if ps == nil {
		t.evictPending()
		ps = &pendShares{}
		t.pend[key] = ps
	}
	if ps.from.Has(from) {
		return
	}
	ps.from = ps.from.Add(from)
	ps.shares = append(ps.shares, body.Share)
	if t.enough(ps.shares) {
		stmt := Statement(t.cfg.Instance, body.Seq, body.Round, body.Hash)
		cert, bad, err := thresig.Combine(t.cfg.Scheme, stmt, ps.shares)
		if bad != nil {
			ps.shares = thresig.Without(ps.shares, bad)
		}
		if err != nil || !t.enough(ps.shares) {
			return
		}
		t.setStable(Checkpoint{Seq: body.Seq, Round: body.Round, Hash: body.Hash, Cert: cert}, nil)
	}
	// A checkpoint a full interval ahead of the local frontier means this
	// replica is lagging: ask for a state transfer.
	t.maybeFetch(body.Seq)
}

// evictPending makes room for a new candidate by dropping the pending
// entry with the fewest shares (Byzantine floods of fabricated hashes
// lose to candidates honest shares accumulate on).
func (t *Tracker) evictPending() {
	if len(t.pend) < maxPendingCheckpoints {
		return
	}
	var victim pendKey
	fewest := -1
	for k, ps := range t.pend {
		if fewest < 0 || len(ps.shares) < fewest {
			victim, fewest = k, len(ps.shares)
		}
	}
	delete(t.pend, victim)
}

func (t *Tracker) onFetch(from int, body fetchBody) {
	if t.stable.Seq <= body.HaveSeq || t.snap == nil {
		// Nothing servable yet: remember the want and answer the moment
		// a newer stable checkpoint (with its snapshot) exists — a
		// restarted replica often fetches before the first certificate.
		t.wanting[from] = body.HaveSeq
		return
	}
	t.serveState(from)
}

// serveState sends the stable checkpoint, its snapshot, and the
// retained delivery suffix to one requester (a bounded number of times
// per stable checkpoint, so catch-up retries can recover lost replies
// without opening a snapshot-flood amplifier).
func (t *Tracker) serveState(from int) {
	rec := t.served[from]
	if rec.seq > t.stable.Seq {
		return
	}
	if rec.seq == t.stable.Seq && rec.count >= maxServesPerCheckpoint {
		return // retry budget for this checkpoint exhausted
	}
	if rec.seq < t.stable.Seq {
		rec = serveRec{seq: t.stable.Seq}
	}
	rec.count++
	t.served[from] = rec
	delete(t.wanting, from)
	reply := stateBody{
		Seq: t.stable.Seq, Round: t.stable.Round, Hash: t.stable.Hash,
		Cert: t.stable.Cert, Snapshot: t.snap,
	}
	if t.cfg.Suffix != nil {
		reply.Suffix, reply.LiveRound = t.cfg.Suffix(t.stable.Seq)
	}
	if reply.LiveRound == 0 {
		reply.LiveRound = t.stable.Round
	}
	_ = t.cfg.Router.Send(from, Protocol, t.cfg.Instance, typeState, reply)
}

func (t *Tracker) onState(from int, body stateBody) {
	if t.cfg.Install == nil {
		return
	}
	if from == t.distrust {
		// This peer served the suffix behind the last detected
		// divergence: skip one reply so another peer gets the install.
		t.distrust = -1
		return
	}
	live := body.Seq + int64(len(body.Suffix))
	if live <= t.cfg.CurrentSeq() {
		return
	}
	if body.LiveRound > body.Round+int64(len(body.Suffix))+maxRoundSlack {
		return // implausible round claim
	}
	if t.cfg.Scheme.Verify(Statement(t.cfg.Instance, body.Seq, body.Round, body.Hash), body.Cert) != nil {
		return
	}
	if sha256.Sum256(body.Snapshot) != body.Hash {
		return
	}
	cp := Checkpoint{Seq: body.Seq, Round: body.Round, Hash: body.Hash, Cert: body.Cert}
	if !t.cfg.Install(cp, body.Snapshot, body.Suffix, body.LiveRound) {
		return
	}
	if t.installs != nil {
		t.installs.Inc()
	}
	t.lastInstallFrom = from
	if len(body.Suffix) > 0 {
		t.tentative = true
	}
	t.setStable(cp, body.Snapshot)
}

// maybeFetch broadcasts one FETCH per newly observed checkpoint seq that
// leaves the local frontier a full interval behind.
func (t *Tracker) maybeFetch(seq int64) {
	if t.cfg.Install == nil || t.cfg.Interval <= 0 {
		return
	}
	if seq < t.cfg.CurrentSeq()+t.cfg.Interval || seq <= t.lastFetch {
		return
	}
	t.lastFetch = seq
	t.broadcastFetch()
}

// setStable adopts a newer stable checkpoint and runs the audit: if this
// replica took its own checkpoint at the same sequence with a different
// state hash, its state diverged (a poisoned catch-up suffix) and a
// fresh state transfer is requested.
func (t *Tracker) setStable(cp Checkpoint, snapshot []byte) {
	if cp.Seq <= t.stable.Seq {
		return
	}
	audited := false
	if t.ownSeq == cp.Seq {
		if t.ownHash == cp.Hash {
			audited = true
		} else {
			if t.diverged != nil {
				t.diverged.Inc()
			}
			t.tentative = true
			t.distrust = t.lastInstallFrom
			t.ownSnap = nil
		}
	}
	t.stable = cp
	switch {
	case snapshot != nil:
		t.snap = snapshot
	case audited:
		t.snap = t.ownSnap
	default:
		t.snap = nil
	}
	if audited && t.tentative {
		// The certified network hash matches ours: the suffix that got us
		// here was honest, resume contributing checkpoint shares.
		t.tentative = false
	}
	if enc, err := wire.MarshalBody(cp); err == nil {
		t.stableEnc = enc
	}
	if t.snap != nil {
		// Answer fetches that arrived before this checkpoint existed.
		for from, have := range t.wanting {
			if cp.Seq > have {
				t.serveState(from)
			}
		}
	}
	for k := range t.pend {
		if k.seq <= cp.Seq {
			delete(t.pend, k)
		}
	}
	if t.certs != nil {
		t.certs.Inc()
		t.stableSeq.Set(cp.Seq)
	}
	if t.cfg.OnStable != nil {
		t.cfg.OnStable(cp)
	}
	if t.tentative && t.ownSeq == cp.Seq {
		// Audit failed at this very checkpoint: re-fetch certified state.
		t.broadcastFetch()
	} else {
		t.maybeFetch(cp.Seq)
	}
}
