// Package rbc implements reliable broadcast: an optimized variant of the
// Bracha–Toueg protocol, the basic broadcast primitive of the paper's
// architecture (§3). All honest parties deliver the same set of messages,
// including every message broadcast by an honest sender; nothing is
// guaranteed about delivery order, and a corrupted sender may cause
// agreement on at most one payload (or none).
//
// Optimizations over the textbook protocol: READY messages carry only the
// payload digest, and a party that reaches the delivery condition without
// having seen the payload fetches it from the parties that vouched for it
// (digest-checked), so large payloads travel at most twice per honest
// party pair.
//
// Above a configurable size threshold the sender can switch to coded
// dissemination (AVID-style, after Cachin–Tessaro): the payload is
// erasure-coded into n fragments of which any k = n−2t reconstruct it,
// the sender commits to the encoding with a Merkle root, each party
// receives only its own fragment plus branch and echoes that, and
// delivery reconstructs the payload and re-verifies the recomputed root
// against the commitment before accepting. Per-party traffic drops from
// O(n·B) to O(B·n/k + n·log n) — linear instead of quadratic total — at
// the price of deferring the external-validity predicate from echo time
// to delivery time (a fragment reveals nothing to validate).
//
// Thresholds follow the generalized substitution rules (§4.2): the echo
// quorum is IsQuorum (n−t), READY amplification needs a set that blocks
// every quorum (t+1), and delivery needs the strong rule (2t+1). All
// three are evaluated through a trust.Quorums backend with this party as
// the observer, so the same code runs under the paper's shared adversary
// structure and under asymmetric per-party quorum systems: a wise party
// (one whose fail-prone assumption covers the actual corruption set)
// keeps agreement with every other wise party, because any two wise
// parties' quorums intersect outside the corruption set and an honest
// party sends at most one READY per instance.
package rbc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/merkle"
	"sintra/internal/obs"
	"sintra/internal/rs"
	"sintra/internal/trust"
)

// Protocol is the wire protocol name of reliable broadcast.
const Protocol = "rbc"

// Message types.
const (
	typeSend  = "SEND"
	typeEcho  = "ECHO"
	typeReady = "READY"
	typeReq   = "REQ"
	typeAns   = "ANS"
	typeFrag  = "FRAG"  // sender → party: that party's coded fragment
	typeCEcho = "CECHO" // party → all: echo of its own fragment
	// typeCommit never travels on the wire: it tags the journal record
	// binding a coded sender to its Merkle-root commitment.
	typeCommit = "COMMIT"
)

// DefaultRetryInterval paces the REQ fetch retry timer when the config
// leaves RetryInterval zero.
const DefaultRetryInterval = 500 * time.Millisecond

// maxStoredPayloads is the hard per-instance cap on distinct payload
// buffers retained before delivery (the support-based retention rule
// prunes first; this bounds the worst case outright).
const maxStoredPayloads = 8

// payloadBody carries a full payload (SEND, ECHO, ANS).
type payloadBody struct {
	Payload []byte
}

// digestBody carries only the payload digest (READY, REQ). For coded
// broadcasts the digest is the sender's Merkle-root commitment.
type digestBody struct {
	Digest [32]byte
}

// fragBody carries one erasure-coded fragment with its Merkle branch
// (FRAG, CECHO).
type fragBody struct {
	// Root is the sender's Merkle-root commitment over all n fragments.
	Root [32]byte
	// Index is the fragment index; a CECHO must carry the echoer's own.
	Index int
	// PayLen is the original payload length, bound into the leaf hash.
	PayLen int
	// Shard is the fragment's shard bytes.
	Shard []byte
	// Branch authenticates (PayLen, Index, Shard) against Root.
	Branch [][32]byte
}

// InstanceID builds the canonical instance identifier, binding the
// sender's identity into the instance so no other party can usurp it.
func InstanceID(sender int, tag string) string {
	return strconv.Itoa(sender) + "/" + tag
}

// SenderOf parses the sender out of an instance identifier.
func SenderOf(instance string) (int, error) {
	head, _, ok := strings.Cut(instance, "/")
	if !ok {
		return 0, fmt.Errorf("rbc: malformed instance %q", instance)
	}
	sender, err := strconv.Atoi(head)
	if err != nil {
		return 0, fmt.Errorf("rbc: malformed instance %q", instance)
	}
	return sender, nil
}

// Config wires one broadcast instance.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Struct is the adversary structure.
	Struct *adversary.Structure
	// Trust optionally overrides the quorum backend consulted for the
	// echo-quorum, amplification, and delivery rules; nil wraps Struct
	// in the symmetric backend, preserving the original behavior.
	Trust trust.Quorums
	// Instance is the instance identifier (use InstanceID).
	Instance string
	// Sender is the broadcasting party.
	Sender int
	// Deliver is called exactly once with the delivered payload.
	Deliver func(payload []byte)
	// Predicate optionally rejects payloads (external validity); nil
	// accepts everything. On the plain path honest parties neither echo
	// nor deliver a payload failing the predicate; on the coded path a
	// fragment reveals nothing to validate, so the check moves to
	// delivery time (reconstructed payloads failing it never deliver).
	Predicate func(payload []byte) bool
	// CodedThreshold switches Start to coded dissemination for payloads
	// of at least this many bytes. 0 disables the coded sender path
	// (receivers always understand coded messages). The fragment count
	// parameters derive from Struct; structures without a usable
	// k = n−2t ≥ 1 fall back to the plain path.
	CodedThreshold int
	// RetryInterval paces the rotating REQ fetch retry over the vouching
	// set: a lost ANS no longer stalls the instance forever. 0 selects
	// DefaultRetryInterval; negative disables retries.
	RetryInterval time.Duration
}

// RBC is one reliable-broadcast instance. All methods must be called from
// the router's dispatch goroutine (or before it starts), except Start.
type RBC struct {
	cfg   Config
	trust trust.Quorums
	self  int

	echoed    bool
	readySent bool
	delivered bool
	requested bool

	// echoedBy and readiedBy record which parties this instance has
	// counted an ECHO/READY from — the first vote per party wins. Honest
	// parties vote once, so this bounds every per-digest map at n
	// entries no matter how many distinct payloads a Byzantine party
	// invents.
	echoedBy  adversary.Set
	readiedBy adversary.Set

	echoes   map[[32]byte]adversary.Set
	readies  map[[32]byte]adversary.Set
	payloads map[[32]byte][]byte
	answered adversary.Set

	// Coded-mode receive state: per-root fragment sets and roots whose
	// reconstruction failed the re-encode commitment check.
	frags    map[[32]byte]*rootFrags
	badRoots map[[32]byte]bool
	codec    *rs.Codec
	codecSet bool

	// REQ fetch state: the digest being fetched, the parties asked so
	// far (the only ones whose ANS is accepted), and the rotating retry.
	reqDigest   [32]byte
	reqTargets  adversary.Set
	reqArmed    bool
	reqCursor   int
	deliveredAt [32]byte

	span *obs.Span

	payloadsDropped *obs.Counter
	reqRetries      *obs.Counter
	codedFragsSent  *obs.Counter
	codedEchoes     *obs.Counter
	codedRebuilt    *obs.Counter
	codedInvalid    *obs.Counter
	rsEncodes       *obs.Counter
	rsRebuilds      *obs.Counter
}

type rootFrags struct {
	payLen int
	shards map[int][]byte
}

// New creates and registers a broadcast instance on the router.
func New(cfg Config) *RBC {
	r := &RBC{
		cfg:      cfg,
		trust:    cfg.Trust,
		self:     cfg.Router.Self(),
		echoes:   make(map[[32]byte]adversary.Set),
		readies:  make(map[[32]byte]adversary.Set),
		payloads: make(map[[32]byte][]byte),
		span:     obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if r.trust == nil {
		r.trust = trust.NewSymmetric(cfg.Struct)
	}
	if reg := cfg.Router.Observer(); reg != nil {
		r.payloadsDropped = reg.Counter("rbc.payloads.dropped")
		r.reqRetries = reg.Counter("rbc.req.retries")
		r.codedFragsSent = reg.Counter("rbc.coded.frags.sent")
		r.codedEchoes = reg.Counter("rbc.coded.echoes")
		r.codedRebuilt = reg.Counter("rbc.coded.reconstructs")
		r.codedInvalid = reg.Counter("rbc.coded.invalid")
		r.rsEncodes = reg.Counter("rs.encodes")
		r.rsRebuilds = reg.Counter("rs.reconstructs")
	}
	cfg.Router.Register(Protocol, cfg.Instance, r.Handle)
	return r
}

// newCodec derives the erasure-coding parameters k = n−2t, m = 2t from
// the adversary structure. ok is false when the structure admits no
// usable coding (then senders fall back to the plain path).
func newCodec(st *adversary.Structure, n int) (*rs.Codec, bool) {
	if st == nil || n < 1 || n > rs.MaxShards {
		return nil, false
	}
	t, err := st.MaxTolerated()
	if err != nil {
		return nil, false
	}
	k := n - 2*t
	if k < 1 {
		return nil, false
	}
	c, err := rs.New(k, n-k)
	if err != nil {
		return nil, false
	}
	return c, true
}

// getCodec caches the receive-side codec on first use.
func (r *RBC) getCodec() *rs.Codec {
	if !r.codecSet {
		r.codecSet = true
		r.codec, _ = newCodec(r.cfg.Struct, r.cfg.Router.N())
	}
	return r.codec
}

// fragLeaf is the Merkle leaf preimage: it binds the payload length and
// the fragment index to the shard bytes, so inconsistent length claims
// or transplanted fragments fail branch verification.
func fragLeaf(payLen, index int, shard []byte) []byte {
	leaf := make([]byte, 12+len(shard))
	binary.BigEndian.PutUint64(leaf, uint64(payLen))
	binary.BigEndian.PutUint32(leaf[8:], uint32(index))
	copy(leaf[12:], shard)
	return leaf
}

func fragLeaves(shards [][]byte, payLen int) [][]byte {
	leaves := make([][]byte, len(shards))
	for i, s := range shards {
		leaves[i] = fragLeaf(payLen, i, s)
	}
	return leaves
}

// Start broadcasts the payload; only the instance's sender may call it.
// Safe from any goroutine.
func (r *RBC) Start(payload []byte) error {
	if r.cfg.Router.Self() != r.cfg.Sender {
		return fmt.Errorf("rbc: party %d cannot start instance of sender %d", r.cfg.Router.Self(), r.cfg.Sender)
	}
	if r.cfg.CodedThreshold > 0 && len(payload) >= r.cfg.CodedThreshold {
		if cdc, ok := newCodec(r.cfg.Struct, r.cfg.Router.N()); ok {
			return r.startCoded(cdc, payload)
		}
	}
	// Journaled: the sender's payload is a commitment — a recovered
	// sender must re-send the same bytes, never a different payload.
	return r.cfg.Router.BroadcastJournaled("send", Protocol, r.cfg.Instance, typeSend, payloadBody{Payload: payload})
}

// startCoded erasure-codes the payload and sends each party its own
// fragment. Only the sender's local codec and tree are touched, so the
// method stays safe off the dispatch goroutine like the plain Start.
func (r *RBC) startCoded(cdc *rs.Codec, payload []byte) error {
	shards, err := cdc.Encode(cdc.Split(payload))
	if err != nil {
		return fmt.Errorf("rbc: coded start: %w", err)
	}
	r.rsEncodes.Inc()
	tree := merkle.NewTree(fragLeaves(shards, len(payload)))
	root := tree.Root()
	// Journal the root commitment before the first fragment leaves: a
	// recovered sender either repeats the identical encoding or goes
	// mute — it can never commit to a second root for this instance.
	rec, replayed, err := r.cfg.Router.JournalCommitment(Protocol, r.cfg.Instance, typeCommit, "send", root[:])
	if err != nil {
		return fmt.Errorf("rbc: coded commitment not durable: %w", err)
	}
	if replayed && !bytes.Equal(rec, root[:]) {
		return fmt.Errorf("rbc: journaled commitment differs from recomputed root; refusing to equivocate")
	}
	for j := 0; j < r.cfg.Router.N(); j++ {
		if err := r.cfg.Router.Send(j, Protocol, r.cfg.Instance, typeFrag, fragBody{
			Root:   root,
			Index:  j,
			PayLen: len(payload),
			Shard:  shards[j],
			Branch: tree.Branch(j),
		}); err != nil {
			return err
		}
		r.codedFragsSent.Inc()
	}
	return nil
}

// Delivered reports whether the instance has delivered.
func (r *RBC) Delivered() bool { return r.delivered }

// PayloadsHeld reports how many distinct payload buffers the instance
// currently retains — the quantity the bounded-memory regression tests
// watch.
func (r *RBC) PayloadsHeld() int { return len(r.payloads) }

func (r *RBC) valid(payload []byte) bool {
	return r.cfg.Predicate == nil || r.cfg.Predicate(payload)
}

// Handle processes one protocol message.
func (r *RBC) Handle(from int, msgType string, payload []byte) {
	switch msgType {
	case typeSend:
		var body payloadBody
		if from != r.cfg.Sender || !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onSend(body.Payload)
	case typeEcho:
		var body payloadBody
		if !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onEcho(from, body.Payload)
	case typeFrag:
		var body fragBody
		if from != r.cfg.Sender || !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onFrag(body)
	case typeCEcho:
		var body fragBody
		if !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onCEcho(from, body)
	case typeReady:
		var body digestBody
		if !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onReady(from, body.Digest)
	case typeReq:
		var body digestBody
		if !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onReq(from, body.Digest)
	case typeAns:
		var body payloadBody
		if !r.cfg.Router.Decode(payload, &body) {
			return
		}
		r.onAns(from, body.Payload)
	}
}

func (r *RBC) onSend(payload []byte) {
	if r.echoed || !r.valid(payload) {
		return
	}
	r.echoed = true
	_ = r.cfg.Router.BroadcastJournaled("echo", Protocol, r.cfg.Instance, typeEcho, payloadBody{Payload: payload})
}

// onFrag handles the sender's direct fragment: verify the branch against
// the committed root and echo the fragment to everyone.
func (r *RBC) onFrag(b fragBody) {
	if r.echoed || b.Index != r.self || !r.fragValid(&b) {
		return
	}
	r.echoed = true
	// Journaled: the echoed fragment is this party's commitment to the
	// sender's root for this instance.
	_ = r.cfg.Router.BroadcastJournaled("echo", Protocol, r.cfg.Instance, typeCEcho, b)
}

// fragValid checks a fragment's shape and Merkle branch.
func (r *RBC) fragValid(b *fragBody) bool {
	cdc := r.getCodec()
	n := r.cfg.Router.N()
	if cdc == nil || b.Index < 0 || b.Index >= n || b.PayLen < 0 {
		return false
	}
	want := cdc.ShardLen(b.PayLen)
	if want == 0 {
		want = 1
	}
	if len(b.Shard) != want {
		return false
	}
	return merkle.VerifyBranch(b.Root, b.Index, n, fragLeaf(b.PayLen, b.Index, b.Shard), b.Branch)
}

func (r *RBC) onEcho(from int, payload []byte) {
	if r.echoedBy.Has(from) {
		return // first echo per party wins: bounds all per-digest state
	}
	if !r.valid(payload) {
		return
	}
	d := sha256.Sum256(payload)
	r.echoedBy = r.echoedBy.Add(from)
	r.echoes[d] = r.echoes[d].Add(from)
	r.storeSpeculative(d, payload)
	if r.trust.IsQuorum(r.self, r.echoes[d]) {
		r.sendReady(d)
	}
	r.tryDeliver(d)
}

// onCEcho handles another party's fragment echo: each party may echo
// exactly its own fragment, once.
func (r *RBC) onCEcho(from int, b fragBody) {
	if r.echoedBy.Has(from) || b.Index != from {
		return
	}
	if !r.fragValid(&b) {
		return
	}
	r.echoedBy = r.echoedBy.Add(from)
	r.echoes[b.Root] = r.echoes[b.Root].Add(from)
	r.codedEchoes.Inc()
	if !r.delivered && !r.badRoots[b.Root] {
		rf := r.frags[b.Root]
		if rf == nil {
			rf = &rootFrags{payLen: b.PayLen, shards: make(map[int][]byte)}
			if r.frags == nil {
				r.frags = make(map[[32]byte]*rootFrags)
			}
			r.frags[b.Root] = rf
		}
		// A branch-verified fragment with a different length claim can
		// only come from a sender that committed an inconsistent tree;
		// such a tree can never pass the delivery re-encode check, so
		// dropping the fragment loses nothing.
		if rf.payLen == b.PayLen {
			rf.shards[from] = b.Shard
		}
	}
	if r.trust.IsQuorum(r.self, r.echoes[b.Root]) {
		r.sendReady(b.Root)
	}
	r.tryDeliver(b.Root)
}

func (r *RBC) onReady(from int, d [32]byte) {
	if r.readiedBy.Has(from) {
		return // first READY per party wins (honest parties send one)
	}
	r.readiedBy = r.readiedBy.Add(from)
	r.readies[d] = r.readies[d].Add(from)
	// Amplification: once the READY senders block every quorum of this
	// party, some honest party in one of them sent READY first.
	if r.trust.Blocks(r.self, r.readies[d]) {
		r.sendReady(d)
	}
	r.tryDeliver(d)
}

func (r *RBC) sendReady(d [32]byte) {
	if r.readySent {
		return
	}
	r.readySent = true
	_ = r.cfg.Router.BroadcastJournaled("ready", Protocol, r.cfg.Instance, typeReady, digestBody{Digest: d})
}

func (r *RBC) tryDeliver(d [32]byte) {
	if r.delivered || !r.trust.IsStrong(r.self, r.readies[d]) {
		return
	}
	p, ok := r.payloads[d]
	if !ok {
		if rec, found := r.tryReconstruct(d); found {
			if !r.valid(rec) {
				// External validity, deferred from echo time on the
				// coded path: an invalid payload never delivers, at any
				// honest party (they all reconstruct the same bytes).
				r.markBadRoot(d)
				return
			}
			r.payloads[d] = rec
			p, ok = rec, true
		}
	}
	if !ok {
		// Fetch the payload from the parties that vouched for it.
		r.requestPayload(d)
		return
	}
	r.delivered = true
	r.deliveredAt = d
	r.compactAfterDeliver(d)
	r.span.End(obs.StageDeliver, -1)
	if r.cfg.Deliver != nil {
		r.cfg.Deliver(p)
	}
}

// tryReconstruct attempts a coded reconstruction for root d: with at
// least k branch-verified fragments, decode the data shards, re-encode
// all n, rebuild the Merkle tree, and accept only if the recomputed root
// equals the commitment. The re-encode check is what turns "any k
// fragments" into agreement: if any honest party's k-subset re-encodes
// to the root, the committed fragment set is the consistent encoding of
// one payload and every other subset reconstructs the same bytes; if
// not, no subset does and no honest party ever delivers.
func (r *RBC) tryReconstruct(d [32]byte) ([]byte, bool) {
	rf := r.frags[d]
	cdc := r.getCodec()
	if rf == nil || cdc == nil || r.badRoots[d] || len(rf.shards) < cdc.K() {
		return nil, false
	}
	shards := make([][]byte, cdc.N())
	for i, s := range rf.shards {
		shards[i] = s
	}
	r.rsRebuilds.Inc()
	data, err := cdc.Reconstruct(shards)
	if err != nil {
		r.markBadRoot(d)
		return nil, false
	}
	payload, err := cdc.Join(data, rf.payLen)
	if err != nil {
		r.markBadRoot(d)
		return nil, false
	}
	full, err := cdc.Encode(data)
	if err != nil {
		r.markBadRoot(d)
		return nil, false
	}
	if merkle.NewTree(fragLeaves(full, rf.payLen)).Root() != d {
		r.markBadRoot(d)
		return nil, false
	}
	r.codedRebuilt.Inc()
	return payload, true
}

func (r *RBC) markBadRoot(d [32]byte) {
	if r.badRoots == nil {
		r.badRoots = make(map[[32]byte]bool)
	}
	r.badRoots[d] = true
	delete(r.frags, d)
	r.codedInvalid.Inc()
}

// requestPayload opens (or continues) the REQ fetch for digest d and
// arms the rotating retry timer.
func (r *RBC) requestPayload(d [32]byte) {
	if r.requested {
		return
	}
	r.requested = true
	r.reqDigest = d
	targets := r.readies[d].Union(r.echoes[d]).Remove(r.self)
	r.reqTargets = targets
	for _, j := range targets.Members() {
		_ = r.cfg.Router.Send(j, Protocol, r.cfg.Instance, typeReq, digestBody{Digest: d})
	}
	r.scheduleRetry()
}

// scheduleRetry arms the REQ retry timer: vouchers answer at most once
// and a lossy link can lose the ANS, so a single round of REQs could
// otherwise stall the instance forever.
func (r *RBC) scheduleRetry() {
	if r.cfg.RetryInterval < 0 || r.reqArmed || r.delivered {
		return
	}
	r.reqArmed = true
	interval := r.cfg.RetryInterval
	if interval == 0 {
		interval = DefaultRetryInterval
	}
	time.AfterFunc(interval, func() {
		r.cfg.Router.Do(r.retryReq)
	})
}

// retryReq re-REQs one voucher per tick, rotating through the current
// vouching set (which may have grown since the first round).
func (r *RBC) retryReq() {
	r.reqArmed = false
	if r.delivered || !r.requested {
		return
	}
	vouchers := r.readies[r.reqDigest].Union(r.echoes[r.reqDigest]).Remove(r.self).Members()
	if len(vouchers) > 0 {
		j := vouchers[r.reqCursor%len(vouchers)]
		r.reqCursor++
		r.reqTargets = r.reqTargets.Add(j)
		r.reqRetries.Inc()
		_ = r.cfg.Router.Send(j, Protocol, r.cfg.Instance, typeReq, digestBody{Digest: r.reqDigest})
	}
	r.scheduleRetry()
}

func (r *RBC) onReq(from int, d [32]byte) {
	if r.answered.Has(from) {
		return // answer each party at most once per instance
	}
	p, ok := r.payloads[d]
	if !ok {
		return
	}
	r.answered = r.answered.Add(from)
	_ = r.cfg.Router.Send(from, Protocol, r.cfg.Instance, typeAns, payloadBody{Payload: p})
}

// onAns accepts a fetched payload only while a fetch is outstanding and
// only from a party this instance actually asked: unsolicited or late
// answers are dropped instead of stored.
func (r *RBC) onAns(from int, payload []byte) {
	if !r.requested || r.delivered || !r.reqTargets.Has(from) {
		return
	}
	if !r.valid(payload) {
		return
	}
	d := sha256.Sum256(payload)
	if d != r.reqDigest {
		// A coded instance's digest is the Merkle-root commitment, not
		// the payload hash: verify by re-encoding.
		if !r.codedMatchesRoot(payload, r.reqDigest) {
			return
		}
		d = r.reqDigest
	}
	if _, ok := r.payloads[d]; !ok {
		r.payloads[d] = payload
	}
	r.tryDeliver(d)
}

// codedMatchesRoot checks whether payload's coded encoding commits to
// root: the ANS analogue of the delivery re-encode check.
func (r *RBC) codedMatchesRoot(payload []byte, root [32]byte) bool {
	cdc := r.getCodec()
	if cdc == nil {
		return false
	}
	shards, err := cdc.Encode(cdc.Split(payload))
	if err != nil {
		return false
	}
	r.rsEncodes.Inc()
	return merkle.NewTree(fragLeaves(shards, len(payload))).Root() == root
}

// storeSpeculative retains an undelivered payload buffer subject to the
// retention rule — keep bytes only for digests whose support set could
// still reach a quorum — and the hard per-instance cap.
func (r *RBC) storeSpeculative(d [32]byte, payload []byte) {
	if _, ok := r.payloads[d]; ok {
		return
	}
	r.pruneUnsupportable()
	if len(r.payloads) >= maxStoredPayloads {
		// Evict the weakest-supported stored digest if the newcomer has
		// at least as much support; otherwise drop the newcomer.
		victim, vSupport := d, r.support(d).Count()
		for od := range r.payloads {
			if od == r.reqDigest && r.requested {
				continue // the digest being fetched stays pinned
			}
			if s := r.support(od).Count(); s < vSupport {
				victim, vSupport = od, s
			}
		}
		r.payloadsDropped.Inc()
		if victim == d {
			return
		}
		delete(r.payloads, victim)
	}
	r.payloads[d] = payload
}

// support is the set of parties vouching for digest d.
func (r *RBC) support(d [32]byte) adversary.Set {
	return r.echoes[d].Union(r.readies[d])
}

// pruneUnsupportable drops payload buffers whose digest can no longer
// gather a quorum of support: parties that already voted for another
// digest are committed (honest parties vote once), so the potential
// support is the current vouchers plus the parties still silent.
func (r *RBC) pruneUnsupportable() {
	n := r.cfg.Router.N()
	silent := r.echoedBy.Union(r.readiedBy).Complement(n)
	for d := range r.payloads {
		if r.requested && d == r.reqDigest {
			continue // fetched under a strong READY set: keep
		}
		if !r.trust.IsQuorum(r.self, r.support(d).Union(silent)) {
			delete(r.payloads, d)
			r.payloadsDropped.Inc()
		}
	}
}

// compactAfterDeliver releases speculative state once the instance has
// delivered: only the delivered payload stays (to serve REQ fetches).
func (r *RBC) compactAfterDeliver(d [32]byte) {
	for od := range r.payloads {
		if od != d {
			delete(r.payloads, od)
		}
	}
	r.frags = nil
	r.badRoots = nil
}
