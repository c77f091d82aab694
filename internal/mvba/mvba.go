// Package mvba implements multi-valued validated Byzantine agreement, the
// layer between binary agreement and atomic broadcast in the paper's
// architecture (§3). Parties agree on one proposed value from an
// arbitrary domain; the new "external validity" condition — a global
// predicate every honest party can evaluate — guarantees the decided
// value is acceptable to honest parties, ruling out agreement on a value
// nobody proposed.
//
// The protocol follows Cachin–Kursawe–Petzold–Shoup (CKPS01):
//
//  1. Every party consistent-broadcasts its (externally valid) proposal;
//     the CBC certificate is transferable evidence of the proposal.
//  2. Once a quorum of proposals is certified here, parties run trials:
//     trial 1 is led by the public Config.Leader, every later trial by a
//     random leader the threshold coin elects; everybody votes whether
//     the leader's proposal is certified at it (a yes-vote is the
//     certificate, never the proposal: every party was sent that); a
//     binary agreement decides whether to adopt the leader.
//  3. On a 1-decision, a party that misses the winning proposal fetches it
//     through the leader's consistent broadcast — binary validity
//     guarantees an honest party that held the certificate when it input
//     1: either it has delivered and answers, or it lacks the payload and
//     its own request carries the certificate to the parties that signed,
//     so hold, the payload, who then deliver and answer everyone.
//
// Per proposer the instance keeps one fact, "its broadcast is certified
// here"; the bytes are needed in exactly one place, the decide.
//
// Safety never reads the coin. The adversary knows trial 1's leader in
// advance and can starve it, which costs at most that one trial: from
// trial 2 on the leader is drawn after the proposals are fixed, so a
// constant expected number of trials suffices, giving constant expected
// rounds overall.
package mvba

import (
	"crypto/rand"
	"fmt"

	"sintra/internal/aba"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/coin"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/thresig"
	"sintra/internal/trust"
)

// Protocol is the wire protocol name of multi-valued agreement.
const Protocol = "mvba"

// Message types.
const (
	typeStart    = "START"
	typeLeadCoin = "LEADCOIN"
	typeVote     = "VOTE"
)

type startBody struct {
	Proposal []byte
}

type leadCoinBody struct {
	Trial  int
	Shares []coin.Share
}

// voteBody with HasCert is a yes-vote: the certificate of the trial
// leader's consistent broadcast, for the digest it certifies.
type voteBody struct {
	Trial   int
	HasCert bool
	Digest  [32]byte
	Cert    []byte
}

// Config wires one multi-valued agreement instance.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Struct is the adversary structure.
	Struct *adversary.Structure
	// Trust optionally overrides the quorum backend, threaded down to
	// the embedded consistent broadcasts and binary agreements and used
	// for the phase and vote quorums; nil wraps Struct in the symmetric
	// backend, preserving the original behavior.
	Trust trust.Quorums
	// Instance is the instance identifier.
	Instance string
	// Leader leads trial 1, without a coin: a protocol input every party
	// sets alike (atomic broadcast's round r is led by r mod n).
	Leader int
	// Coin is the threshold coin, which elects the leaders of trials 2 on;
	// CoinKey the party's shares.
	Coin    *coin.Params
	CoinKey *coin.SecretKey
	// Scheme is the quorum-rule threshold signature scheme (for CBC
	// certificates); Key the party's signing key.
	Scheme thresig.Scheme
	Key    *thresig.SecretKey
	// Predicate is the external validity condition; nil accepts all. from
	// is who stands behind the value: the party whose consistent broadcast
	// proposes it. It is evaluated before signing a proposal, so every
	// certificate proves a quorum — hence an honest party — validated it.
	Predicate func(payload []byte, from int) bool
	// Decide is called exactly once with the decided value.
	Decide func(value []byte)
}

// lookAhead bounds the trials a party keeps state for: a LEADCOIN or VOTE
// for trial lookAhead or more past its own is dropped and counted
// (mvba.ahead.dropped). The others run lookAhead trials past an honest
// laggard only by deciding 0 in each, while from trial 2 on each decides
// 1 with constant probability (CKPS01).
const lookAhead = 64

type trialState struct {
	coinCombiner *coin.Combiner
	coinShared   bool
	leader       int
	leaderKnown  bool

	voted     bool
	votesFrom adversary.Set
	// early are the yes-votes that outran the leader election; their
	// certificates are presented once the leader is known.
	early []voteBody

	abaStarted bool
	abaDone    bool
	abaValue   bool
}

// MVBA is one multi-valued agreement instance; dispatch-goroutine only.
type MVBA struct {
	cfg   Config
	trust trust.Quorums
	self  int

	started bool

	cbcs []*cbc.CBC
	// certified are the proposers whose consistent broadcast is certified
	// here; the certificate and the payload stay in cbcs.
	certified adversary.Set

	phase2 bool
	trial  int
	trials map[int]*trialState

	decided bool
	halted  bool

	span *obs.Span
}

// New creates and registers an instance, including the consistent
// broadcasts of all parties' proposals (dispatch goroutine or pre-Run).
func New(cfg Config) *MVBA {
	m := &MVBA{
		cfg:    cfg,
		trust:  cfg.Trust,
		self:   cfg.Router.Self(),
		cbcs:   make([]*cbc.CBC, cfg.Router.N()),
		trials: make(map[int]*trialState),
		span:   obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if m.trust == nil {
		m.trust = trust.NewSymmetric(cfg.Struct)
	}
	// The broadcasts come first: registering replays early arrivals, and a
	// replayed VOTE reaches into the leader's broadcast.
	for j := range m.cbcs {
		m.cbcs[j] = cbc.New(cbc.Config{
			Router:    cfg.Router,
			Struct:    cfg.Struct,
			Trust:     m.trust,
			Instance:  m.cbcInstance(j),
			Sender:    j,
			Scheme:    cfg.Scheme,
			Key:       cfg.Key,
			Predicate: func(p []byte) bool { return m.valid(p, j) },
			Certified: func() { m.onCertified(j) },
			Deliver:   func([]byte, []byte) { m.onCBCDeliver(j) },
		})
	}
	cfg.Router.Register(Protocol, cfg.Instance, m.handle)
	return m
}

func (m *MVBA) cbcInstance(sender int) string {
	return cbc.InstanceID(sender, "m/"+m.cfg.Instance)
}

func (m *MVBA) abaInstance(trial int) string {
	return fmt.Sprintf("%s/t%d", m.cfg.Instance, trial)
}

func (m *MVBA) coinName(trial int) string {
	return fmt.Sprintf("mvba|%s|lead|%d", m.cfg.Instance, trial)
}

// Start proposes a value. Safe from any goroutine (loopback).
func (m *MVBA) Start(proposal []byte) error {
	if !m.valid(proposal, m.self) {
		return fmt.Errorf("mvba: own proposal fails the validity predicate")
	}
	return m.cfg.Router.Loopback(Protocol, m.cfg.Instance, typeStart, startBody{Proposal: proposal})
}

// Halt unregisters the instance and its consistent broadcasts. Call only
// when the whole system has moved on (e.g. two atomic-broadcast rounds
// later); dispatch goroutine only.
func (m *MVBA) Halt() {
	if m.halted {
		return
	}
	m.halted = true
	m.cfg.Router.Unregister(Protocol, m.cfg.Instance)
	for j := range m.cbcs {
		m.cfg.Router.Unregister(cbc.Protocol, m.cbcInstance(j))
	}
	m.trials = nil
}

func (m *MVBA) trialState(a int) *trialState {
	ts, ok := m.trials[a]
	if !ok {
		ts = &trialState{}
		if a == 1 {
			ts.leader, ts.leaderKnown = m.cfg.Leader, true
		} else {
			ts.coinCombiner = coin.NewCombiner(m.cfg.Coin, m.coinName(a))
			ts.coinCombiner.SetGate(trust.CoinGate(m.trust, m.self))
		}
		m.trials[a] = ts
	}
	return ts
}

func (m *MVBA) valid(payload []byte, from int) bool {
	return m.cfg.Predicate == nil || m.cfg.Predicate(payload, from)
}

// handle processes one message on the dispatch goroutine.
func (m *MVBA) handle(from int, msgType string, payload []byte) {
	if m.halted {
		return
	}
	switch msgType {
	case typeStart:
		var body startBody
		if from != m.cfg.Router.Self() || !m.cfg.Router.Decode(payload, &body) {
			return
		}
		m.onStart(body.Proposal)
	case typeLeadCoin:
		var body leadCoinBody
		// Trial 1 has no coin: its LEADCOIN is a corrupted party's. This
		// party's own shares entered its combiner when it released them.
		if from == m.self || !m.cfg.Router.Decode(payload, &body) || body.Trial < 2 || m.ahead(body.Trial) {
			return
		}
		m.onLeadCoin(from, body.Trial, body.Shares)
	case typeVote:
		var body voteBody
		if !m.cfg.Router.Decode(payload, &body) || body.Trial < 1 || m.ahead(body.Trial) {
			return
		}
		m.onVote(from, body)
	}
}

// ahead reports, and counts, a trial outside the look-ahead window.
func (m *MVBA) ahead(a int) bool {
	if a < m.trial+lookAhead {
		return false
	}
	m.span.Event("ahead.dropped", int64(a), "")
	return true
}

func (m *MVBA) onStart(proposal []byte) {
	if m.started {
		return
	}
	m.started = true
	_ = m.cbcs[m.self].Start(proposal)
	m.checkPhase2()
}

// leads reports whether party j is the known leader of the current trial.
func (m *MVBA) leads(j int) bool {
	ts, ok := m.trials[m.trial]
	return ok && ts.leaderKnown && ts.leader == j
}

func (m *MVBA) onCertified(j int) {
	if m.halted {
		return
	}
	m.certified = m.certified.Add(j)
	m.checkPhase2()
	if m.leads(j) {
		m.evalVotes(m.trial) // the binary input is 1 now
	}
}

func (m *MVBA) onCBCDeliver(j int) {
	// A pending 1-decision may have been waiting for the leader's payload.
	if !m.halted && m.leads(j) {
		m.tryFinish(m.trial)
	}
}

func (m *MVBA) checkPhase2() {
	if m.phase2 || !m.started || !m.trust.IsQuorum(m.self, m.certified) {
		return
	}
	m.phase2 = true
	m.startTrial(1)
}

func (m *MVBA) startTrial(a int) {
	m.trial = a
	ts := m.trialState(a)
	if a > 1 && !ts.coinShared {
		ts.coinShared = true
		shares, err := m.cfg.Coin.ReleaseShares(m.cfg.CoinKey, m.coinName(a), rand.Reader)
		if err == nil {
			_ = m.cfg.Router.BroadcastJournaled(fmt.Sprintf("leadcoin/%d", a),
				Protocol, m.cfg.Instance, typeLeadCoin, leadCoinBody{Trial: a, Shares: shares})
			// No party checks its own proof: its shares count unchecked.
			for _, sh := range shares {
				ts.coinCombiner.AddVerified(sh)
			}
		}
	}
	// Earlier-arrived coin shares may already complete the coin — and the
	// leader may even be known already (trial 1's always is; a later
	// trial's when fast peers revealed it while we were still collecting
	// proposals), in which case maybeElect's idempotence guard would skip
	// the vote: cast it explicitly.
	m.maybeElect(a)
	m.sendVote(a)
	m.evalVotes(a)
}

// onLeadCoin adds the trial-a coin shares that party from sent, until
// the trial's leader is known.
func (m *MVBA) onLeadCoin(from, a int, shares []coin.Share) {
	ts := m.trialState(a)
	if ts.leaderKnown {
		return
	}
	if ts.coinCombiner.AddFrom(from, shares) {
		m.span.Event("coin.rejected", int64(a), fmt.Sprint("from ", from))
	}
	m.maybeElect(a)
}

func (m *MVBA) maybeElect(a int) {
	ts := m.trialState(a)
	if ts.leaderKnown || !ts.coinCombiner.Ready() {
		return
	}
	v, err := ts.coinCombiner.Value()
	if err != nil {
		return
	}
	ts.leaderKnown = true
	ts.leader = v.Index(m.cfg.Router.N())
	for _, vote := range ts.early {
		m.cbcs[ts.leader].Certify(vote.Digest, vote.Cert)
	}
	ts.early = nil
	m.sendVote(a)
	m.evalVotes(a)
}

// sendVote casts this party's vote for trial a once phase 2 has begun and
// the leader is known: the leader's certificate if it is here.
func (m *MVBA) sendVote(a int) {
	ts := m.trialState(a)
	if ts.voted || !ts.leaderKnown || !m.phase2 {
		return
	}
	ts.voted = true
	vote := voteBody{Trial: a}
	vote.Digest, vote.Cert, vote.HasCert = m.cbcs[ts.leader].Certificate()
	// One vote per trial is a commitment: a recovered replica must not
	// flip between the with-cert and abstain forms.
	_ = m.cfg.Router.BroadcastJournaled(fmt.Sprintf("vote/%d", a), Protocol, m.cfg.Instance, typeVote, vote)
}

// onVote counts the vote and hands a yes-vote's certificate to the
// leader's broadcast, which checks it unless it holds one already.
func (m *MVBA) onVote(from int, body voteBody) {
	ts := m.trialState(body.Trial)
	if ts.votesFrom.Has(from) {
		return
	}
	ts.votesFrom = ts.votesFrom.Add(from)
	if body.HasCert && ts.leaderKnown {
		m.cbcs[ts.leader].Certify(body.Digest, body.Cert)
	} else if body.HasCert {
		ts.early = append(ts.early, body)
	}
	m.evalVotes(body.Trial)
}

// evalVotes starts the trial's binary agreement when its input is
// determined: 1 as soon as the leader is certified here, 0 once a quorum
// has voted and it is not.
func (m *MVBA) evalVotes(a int) {
	ts := m.trialState(a)
	if !ts.leaderKnown {
		return
	}
	yes := m.certified.Has(ts.leader)
	if !ts.abaStarted && m.phase2 && (yes || m.trust.IsQuorum(m.self, ts.votesFrom)) {
		ts.abaStarted = true
		inst := aba.New(aba.Config{
			Router:   m.cfg.Router,
			Struct:   m.cfg.Struct,
			Trust:    m.trust,
			Instance: m.abaInstance(a),
			Coin:     m.cfg.Coin,
			CoinKey:  m.cfg.CoinKey,
			Decide:   func(v bool) { m.onABADecide(a, v) },
		})
		_ = inst.Start(yes)
	}
	m.tryFinish(a)
}

func (m *MVBA) onABADecide(a int, v bool) {
	if m.halted {
		return
	}
	ts := m.trialState(a)
	ts.abaDone = true
	ts.abaValue = v
	m.tryFinish(a)
}

// tryFinish concludes a trial whose binary agreement has decided. A
// 1-decision without the leader's payload fetches it, presenting the
// certificate if it is here; the broadcast's delivery comes back here.
func (m *MVBA) tryFinish(a int) {
	ts := m.trialState(a)
	if !ts.abaDone || m.decided || a != m.trial {
		return
	}
	if !ts.abaValue {
		m.startTrial(a + 1)
		return
	}
	if value, ok := m.cbcs[ts.leader].Delivered(); ok {
		m.decide(value)
	} else if m.cbcs[ts.leader].Fetch() {
		m.span.Event("decide.fetched", int64(a), "")
	}
}

// Reeval re-runs the external-validity predicate over the embedded
// consistent broadcasts' unsigned SENDs. Call from the dispatch goroutine
// whenever local state the predicate depends on has changed — ABC calls it
// each time a payload some proposal references by digest arrives. Safe to
// call at any time; a no-op when nothing is pending.
func (m *MVBA) Reeval() {
	if m.halted {
		return
	}
	for _, c := range m.cbcs {
		c.Reeval()
	}
}

func (m *MVBA) decide(value []byte) {
	if m.decided {
		return
	}
	m.decided = true
	m.span.End(obs.StageDecide, int64(m.trial))
	if m.cfg.Decide != nil {
		m.cfg.Decide(value)
	}
}
