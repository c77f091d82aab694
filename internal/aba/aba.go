// Package aba implements randomized binary Byzantine agreement driven by
// the threshold coin — the paper's central primitive (§2, §3): agreement
// in a completely asynchronous network, optimal resilience (Q³ / n > 3t),
// and termination in an expected constant number of rounds, circumventing
// the FLP impossibility by randomization.
//
// The round structure is the signature-free binary agreement of
// Mostéfaoui, Moumen and Raynal (BV-broadcast + AUX exchange) combined
// with the Cachin–Kursawe–Shoup cryptographic common coin — the same
// composition as the paper's architecture (a protocol-level coin from
// threshold cryptography deciding the round outcome). Thresholds follow
// the generalized substitution rules of §4.2: BVAL relay fires on a set
// outside the adversary structure (t+1), bin-values admission on an
// IsStrong set (2t+1), and the AUX barrier on a quorum (n−t).
//
// Round 1's coin is fixed to 1, so unanimous 1 (the MVBA's common case)
// decides in round 1 with no coin. Termination uses a DECIDED certificate
// exchange: a party that decides broadcasts DECIDED(b); receiving
// DECIDED(b) from a set outside the adversary structure is proof that an
// honest party decided b, so the receiver may adopt b, and a party halts
// once a full quorum has sent DECIDED — at that point every honest party
// is guaranteed to learn the decision without further help. A decided
// party opens a later round only once an honest party is in it (DESIGN.md
// §2 argues both rules).
package aba

import (
	"crypto/rand"
	"fmt"

	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Protocol is the wire protocol name of binary agreement.
const Protocol = "aba"

// Message types.
const (
	typeStart   = "START"
	typeBval    = "BVAL"
	typeAux     = "AUX"
	typeCoin    = "COIN"
	typeDecided = "DECIDED"
)

type boolRoundBody struct {
	Round int
	Value bool
}

type coinBody struct {
	Round  int
	Shares []coin.Share
}

type decidedBody struct {
	Value bool
}

// lookAhead bounds the rounds a party keeps state for: a BVAL, AUX or
// COIN for round lookAhead or more past its own is dropped and counted
// (aba.ahead.dropped). A laggard that dropped a round's messages is still
// decided by DECIDED, which names no round and is never dropped: the
// others ran lookAhead rounds past it as a quorum with at least t+1
// honest parties, undecided only with probability about 2^-(lookAhead/2)
// (every two rounds need a coin against them), and once they decide,
// their t+1 DECIDEDs, a set with an honest member, reach the laggard.
const lookAhead = 64

// Config wires one binary-agreement instance.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Struct is the adversary structure.
	Struct *adversary.Structure
	// Trust optionally overrides the quorum backend for the BVAL, AUX,
	// and DECIDED rules and gates the round coins on this party's own
	// quorums; nil wraps Struct in the symmetric backend, preserving the
	// original behavior.
	Trust trust.Quorums
	// Instance is the instance identifier.
	Instance string
	// Coin is the threshold coin public key; CoinKey the party's shares.
	Coin *coin.Params
	// CoinKey is this party's coin key.
	CoinKey *coin.SecretKey
	// Decide is called exactly once with the decided value.
	Decide func(value bool)
	// OnTerminate is called once the instance may be garbage-collected
	// (optional).
	OnTerminate func()
}

// roundState holds the per-round protocol state.
type roundState struct {
	bvalSent [2]bool
	bvalRecv [2]adversary.Set
	bin      [2]bool

	auxSent  bool
	auxFrom  adversary.Set
	auxRecv  [2]adversary.Set
	barrier  bool // AUX barrier passed; vals frozen
	vals     [2]bool
	coinSent bool

	coinCombiner *coin.Combiner
	coinDone     bool
	coinValue    bool

	advanced bool // round outcome applied
}

// ABA is one binary-agreement instance; dispatch-goroutine only.
type ABA struct {
	cfg   Config
	trust trust.Quorums
	self  int

	started bool
	round   int
	opened  int // last round this party sent its estimate in
	est     bool
	rounds  map[int]*roundState

	decided     bool
	decision    bool
	decidedSent bool
	decidedFrom [2]adversary.Set
	terminated  bool

	span *obs.Span
}

// New creates and registers an instance (dispatch goroutine or pre-Run).
func New(cfg Config) *ABA {
	a := &ABA{
		cfg:    cfg,
		trust:  cfg.Trust,
		self:   cfg.Router.Self(),
		rounds: make(map[int]*roundState),
		span:   obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if a.trust == nil {
		a.trust = trust.NewSymmetric(cfg.Struct)
	}
	cfg.Router.RegisterSplit(Protocol, cfg.Instance, engine.SplitHandler{
		Verify:      a.verifyMsg,
		BatchVerify: a.batchVerify,
		Apply:       a.apply,
		VerifyTypes: []string{typeCoin},
	})
	return a
}

// coinVerdict is the Verify-stage result for COIN messages: the decoded
// round and the subset of shares whose DLEQ proofs checked out. It is
// computed on a worker goroutine from the immutable coin parameters only.
type coinVerdict struct {
	round  int
	shares []coin.Share
}

// verifyMsg is the parallel Verify stage: it checks COIN share proofs —
// the instance's dominant public-key cost — without touching state.
func (a *ABA) verifyMsg(from int, msgType string, payload []byte) any {
	if msgType != typeCoin {
		return nil
	}
	var body coinBody
	// Plain unmarshal, not Router.Decode: the nil-verdict fallback would
	// decode again and double-count router.malformed.
	if wire.UnmarshalBody(payload, &body) != nil || body.Round < 1 {
		return nil
	}
	name := a.coinName(body.Round)
	valid := make([]coin.Share, 0, len(body.Shares))
	for _, sh := range body.Shares {
		if a.cfg.Coin.VerifyShare(name, sh) == nil {
			valid = append(valid, sh)
		}
	}
	return &coinVerdict{round: body.Round, shares: valid}
}

// batchVerify is the coalescing Verify stage for COIN bursts: the
// shares of all drained messages fold into one DLEQ batch — a single
// random-linear-combination multi-exponentiation instead of one
// four-exponentiation proof check per share — with each round's coin
// base derived once. Messages that fail to decode keep a nil verdict
// and fall back to inline apply-time handling, exactly like verifyMsg.
func (a *ABA) batchVerify(msgs []*wire.Message) ([]any, int) {
	verdicts := make([]any, len(msgs))
	bodies := make([]*coinBody, len(msgs))
	bv := a.cfg.Coin.NewBatchVerifier()
	for i, m := range msgs {
		var body coinBody
		if wire.UnmarshalBody(m.Payload, &body) != nil || body.Round < 1 {
			continue
		}
		bodies[i] = &body
		name := a.coinName(body.Round)
		for _, sh := range body.Shares {
			bv.Add(name, sh)
		}
	}
	ok := bv.Verify()
	culprits, k := 0, 0
	for i, body := range bodies {
		if body == nil {
			continue
		}
		valid := make([]coin.Share, 0, len(body.Shares))
		for _, sh := range body.Shares {
			if ok[k] {
				valid = append(valid, sh)
			} else {
				culprits++
			}
			k++
		}
		verdicts[i] = &coinVerdict{round: body.Round, shares: valid}
	}
	return verdicts, culprits
}

// Start proposes the initial value. Safe from any goroutine (loopback).
func (a *ABA) Start(value bool) error {
	return a.cfg.Router.Loopback(Protocol, a.cfg.Instance, typeStart, decidedBody{Value: value})
}

// Round returns the current round number (1-based; 0 before Start), a
// progress metric for the experiment harness.
func (a *ABA) Round() int { return a.round }

func (a *ABA) state(r int) *roundState {
	st, ok := a.rounds[r]
	if !ok {
		st = &roundState{}
		if r == 1 { // the fixed coin: no shares, no combiner
			st.coinSent, st.coinDone, st.coinValue = true, true, true
		} else {
			st.coinCombiner = coin.NewCombiner(a.cfg.Coin, a.coinName(r))
			st.coinCombiner.SetGate(trust.CoinGate(a.trust, a.self))
		}
		a.rounds[r] = st
	}
	return st
}

// ahead reports, and counts, a round outside the look-ahead window.
func (a *ABA) ahead(r int) bool {
	if r < a.round+lookAhead {
		return false
	}
	a.span.Event("ahead.dropped", int64(r), "")
	return true
}

// quiet reports whether round r is one this party counts but sends nothing in.
func (a *ABA) quiet(r int) bool { return a.decided && r > a.opened }

func (a *ABA) coinName(r int) string {
	return fmt.Sprintf("aba|%s|r%d", a.cfg.Instance, r)
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// apply is the serialized Apply stage. A non-nil verdict carries the
// Verify stage's result for COIN messages; a nil verdict means the shares
// were not pre-verified and are checked inline.
func (a *ABA) apply(from int, msgType string, payload []byte, verdict any) {
	if a.terminated {
		return
	}
	switch msgType {
	case typeStart:
		var body decidedBody
		if from != a.cfg.Router.Self() || !a.cfg.Router.Decode(payload, &body) {
			return
		}
		a.onStart(body.Value)
	case typeBval, typeAux:
		var body boolRoundBody
		if !a.cfg.Router.Decode(payload, &body) || body.Round < 1 || a.ahead(body.Round) {
			return
		}
		if msgType == typeBval {
			a.onBval(from, body.Round, body.Value)
		} else {
			a.onAux(from, body.Round, body.Value)
		}
	case typeCoin:
		v, verified := verdict.(*coinVerdict)
		if !verified {
			var body coinBody
			if !a.cfg.Router.Decode(payload, &body) || body.Round < 1 {
				return
			}
			v = &coinVerdict{round: body.Round, shares: body.Shares}
		}
		if !a.ahead(v.round) {
			a.onCoin(v.round, v.shares, verified)
		}
	case typeDecided:
		var body decidedBody
		if !a.cfg.Router.Decode(payload, &body) {
			return
		}
		a.onDecided(from, body.Value)
	}
}

func (a *ABA) onStart(value bool) {
	if a.started {
		return
	}
	a.started = true
	a.round = 1
	a.est = value
	a.tryOpen()
	// Fast peers may already have completed round 1 around us.
	a.tryAdvance(1)
}

// tryOpen opens the current round with BVAL(est). A decided party opens
// it only once its BVAL senders, both values together, include an honest
// party, and then sends the relays, AUX and coin share already due
// (onBinValue passes the barrier on to the coin).
func (a *ABA) tryOpen() {
	r := a.round
	st := a.state(r)
	if a.opened == r || a.decided && !a.trust.HasHonest(a.self, st.bvalRecv[0].Union(st.bvalRecv[1])) {
		return
	}
	a.opened = r
	a.sendBval(r, a.est)
	for _, v := range []bool{a.est, !a.est} {
		if a.trust.Blocks(a.self, st.bvalRecv[b2i(v)]) {
			a.sendBval(r, v)
		}
		if st.bin[b2i(v)] {
			a.onBinValue(r, v)
		}
	}
}

func (a *ABA) sendBval(r int, v bool) {
	st := a.state(r)
	if st.bvalSent[b2i(v)] || a.quiet(r) {
		return
	}
	st.bvalSent[b2i(v)] = true
	// The slot carries both round and value: BVAL for both values in one
	// round is legal, so only a (round, value) pair is a commitment.
	_ = a.cfg.Router.BroadcastJournaled(fmt.Sprintf("bval/%d/%d", r, b2i(v)),
		Protocol, a.cfg.Instance, typeBval, boolRoundBody{Round: r, Value: v})
}

func (a *ABA) onBval(from, r int, v bool) {
	st := a.state(r)
	if st.bvalRecv[b2i(v)].Has(from) {
		return
	}
	st.bvalRecv[b2i(v)] = st.bvalRecv[b2i(v)].Add(from)
	if r == a.round {
		a.tryOpen()
	}
	// Relay once the senders block every quorum (t+1 rule): some honest
	// party BVAL'd v, so it is safe and live to support it.
	if a.trust.Blocks(a.self, st.bvalRecv[b2i(v)]) {
		a.sendBval(r, v)
	}
	// Admit v to bin_values on a delivery-grade set (2t+1 rule): enough
	// honest support that every honest party will eventually admit v too.
	if !st.bin[b2i(v)] && a.trust.IsStrong(a.self, st.bvalRecv[b2i(v)]) {
		st.bin[b2i(v)] = true
		a.onBinValue(r, v)
	}
}

func (a *ABA) onBinValue(r int, v bool) {
	st := a.state(r)
	if !st.auxSent && !a.quiet(r) {
		st.auxSent = true
		_ = a.cfg.Router.BroadcastJournaled(fmt.Sprintf("aux/%d", r),
			Protocol, a.cfg.Instance, typeAux, boolRoundBody{Round: r, Value: v})
	}
	a.tryBarrier(r)
}

func (a *ABA) onAux(from, r int, v bool) {
	st := a.state(r)
	if st.auxFrom.Has(from) {
		return // one AUX per party per round
	}
	st.auxFrom = st.auxFrom.Add(from)
	st.auxRecv[b2i(v)] = st.auxRecv[b2i(v)].Add(from)
	a.tryBarrier(r)
}

// tryBarrier checks the AUX barrier: a quorum of AUX messages whose values
// all lie in bin_values. Values from outside bin_values are not counted
// (they may still join later once their BVAL support arrives).
func (a *ABA) tryBarrier(r int) {
	st := a.state(r)
	if !st.barrier {
		var supported adversary.Set
		for _, v := range []bool{false, true} {
			if st.bin[b2i(v)] {
				supported = supported.Union(st.auxRecv[b2i(v)])
			}
		}
		if !a.trust.IsQuorum(a.self, supported) {
			return
		}
		st.barrier = true
		for _, v := range []bool{false, true} {
			st.vals[b2i(v)] = st.bin[b2i(v)] && st.auxRecv[b2i(v)] != adversary.EmptySet
		}
	}
	// Release the coin only after the barrier: its value must be
	// unpredictable while votes are still free.
	if !st.coinSent && !a.quiet(r) {
		st.coinSent = true
		shares, err := a.cfg.Coin.ReleaseShares(a.cfg.CoinKey, a.coinName(r), rand.Reader)
		if err == nil {
			// Share values are deterministic but the DLEQ proofs are
			// randomized; journaling re-sends the exact recorded proof.
			_ = a.cfg.Router.BroadcastJournaled(fmt.Sprintf("coin/%d", r),
				Protocol, a.cfg.Instance, typeCoin, coinBody{Round: r, Shares: shares})
		}
	}
	a.tryAdvance(r)
}

// onCoin adds round r's coin shares; verified ones passed the Verify
// stage and skip re-verification on the dispatch goroutine.
func (a *ABA) onCoin(r int, shares []coin.Share, verified bool) {
	st := a.state(r)
	if st.coinDone {
		return
	}
	for _, sh := range shares {
		if verified {
			st.coinCombiner.AddVerified(sh)
		} else {
			_ = st.coinCombiner.Add(sh) // invalid shares are rejected inside
		}
	}
	a.finishCoin(r, st)
}

func (a *ABA) finishCoin(r int, st *roundState) {
	if !st.coinCombiner.Ready() {
		return
	}
	value, err := st.coinCombiner.Value()
	if err != nil {
		return
	}
	st.coinDone = true
	st.coinValue = value.Bit()
	a.tryAdvance(r)
}

// tryAdvance applies the round outcome once both the AUX barrier and the
// coin are available for the current round.
func (a *ABA) tryAdvance(r int) {
	if r != a.round || !a.started {
		return
	}
	st := a.state(r)
	if st.advanced || !st.barrier || !st.coinDone {
		return
	}
	st.advanced = true

	zero, one := st.vals[0], st.vals[1]
	switch {
	case zero != one: // singleton vals = {b}
		b := one
		a.est = b
		if b == st.coinValue {
			a.decide(b)
		}
	default: // both values present
		a.est = st.coinValue
	}
	delete(a.rounds, r-1) // keep the previous round for stragglers, GC older
	a.round = r + 1
	a.tryOpen()
	// Process any barrier/coin state that already arrived for the new
	// round.
	a.tryAdvance(a.round)
}

func (a *ABA) decide(b bool) {
	if a.decided {
		return
	}
	a.decided = true
	a.decision = b
	a.span.End(obs.StageDecide, int64(a.round))
	if !a.decidedSent {
		a.decidedSent = true
		_ = a.cfg.Router.BroadcastJournaled("decided", Protocol, a.cfg.Instance, typeDecided, decidedBody{Value: b})
	}
	if a.cfg.Decide != nil {
		a.cfg.Decide(b)
	}
	a.checkTerminate()
}

func (a *ABA) onDecided(from int, v bool) {
	if a.decidedFrom[b2i(v)].Has(from) {
		return
	}
	a.decidedFrom[b2i(v)] = a.decidedFrom[b2i(v)].Add(from)
	// A DECIDED set outside the adversary structure contains an honest
	// decider; agreement makes adopting its value safe.
	if !a.decided && a.trust.HasHonest(a.self, a.decidedFrom[b2i(v)]) {
		a.decide(v)
	}
	a.checkTerminate()
}

// checkTerminate halts once a quorum has sent DECIDED for our decision:
// the honest parties among them guarantee every other honest party will
// adopt the decision without our further participation.
func (a *ABA) checkTerminate() {
	if a.terminated || !a.decided {
		return
	}
	if !a.trust.IsQuorum(a.self, a.decidedFrom[b2i(a.decision)]) {
		return
	}
	a.terminated = true
	a.rounds = nil
	a.cfg.Router.Unregister(Protocol, a.cfg.Instance)
	if a.cfg.OnTerminate != nil {
		a.cfg.OnTerminate()
	}
}
