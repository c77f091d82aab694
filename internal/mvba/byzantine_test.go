package mvba_test

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"sintra/internal/aba"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/coin"
	"sintra/internal/mvba"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// The wire shapes a corrupted party fills in by hand.
type (
	voteBody struct {
		Trial   int
		HasCert bool
		Digest  [32]byte
		Cert    []byte
	}
	certBody struct {
		Digest [32]byte
		Cert   []byte
	}
	ansBody struct {
		Payload []byte
		Cert    []byte
	}
	leadCoinBody struct {
		Trial  int
		Shares []coin.Share
	}
)

// TestByzantineProposerAndVoter drives an actively malicious party 0
// against three honest parties: it equivocates in its consistent
// broadcast, floods garbage votes with forged certificates, sends a
// LEADCOIN for trial 1, which has no coin, and sends requests and answers
// with forged certificates into the honest parties' broadcasts. The honest
// parties must still agree on an honest proposal, and drop the LEADCOIN.
func TestByzantineProposerAndVoter(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 21, Corrupted: []int{0}, Observe: true})
	ep := c.Net.Endpoint(0)

	// The adversary's raw sender.
	sendRaw := func(to int, protocol, instance, msgType string, body any) {
		ep.Send(wire.Message{
			To: to, Protocol: protocol, Instance: instance,
			Type: msgType, Payload: wire.MustMarshalBody(body),
		})
	}

	tag := "byz"
	// Equivocating CBC SENDs for the adversary's own proposal slot.
	ownCBC := cbc.InstanceID(0, "m/"+tag)
	type sendBody struct{ Payload []byte }
	sendRaw(1, cbc.Protocol, ownCBC, "SEND", sendBody{Payload: []byte("evil-A")})
	sendRaw(2, cbc.Protocol, ownCBC, "SEND", sendBody{Payload: []byte("evil-B")})
	sendRaw(3, cbc.Protocol, ownCBC, "SEND", sendBody{Payload: []byte("evil-C")})

	// Garbage votes for several trials, claiming certificates that cannot
	// verify.
	forged := sha256.Sum256([]byte("forged"))
	for trial := 1; trial <= 3; trial++ {
		for to := 1; to < 4; to++ {
			sendRaw(to, mvba.Protocol, tag, "VOTE", voteBody{
				Trial: trial, HasCert: true,
				Digest: forged, Cert: []byte("not a certificate"),
			})
		}
	}
	// Coin shares for trial 1, whose leader is public: party 0's own, valid
	// for the name mvba gives a trial's leader coin. An honest party that
	// took them would feed a combiner trial 1 does not have.
	shares, err := c.Pub.Coin.ReleaseShares(c.Secrets[0].Coin, "mvba|"+tag+"|lead|1", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for to := 1; to < 4; to++ {
		sendRaw(to, mvba.Protocol, tag, "LEADCOIN", leadCoinBody{Trial: 1, Shares: shares})
	}
	// Requests and answers with forged certificates, into the honest
	// parties' broadcasts and its own.
	for to := 1; to < 4; to++ {
		for sender := 0; sender < 4; sender++ {
			slot := cbc.InstanceID(sender, "m/"+tag)
			sendRaw(to, cbc.Protocol, slot, "REQ", certBody{Digest: forged, Cert: []byte("y")})
			sendRaw(to, cbc.Protocol, slot, "ANS", ansBody{Payload: []byte("x"), Cert: []byte("y")})
		}
	}

	proposals := map[int][]byte{
		1: []byte("honest-1"),
		2: []byte("honest-2"),
		3: []byte("honest-3"),
	}
	got := runMVBA(t, c, tag, proposals, nil)
	decided := assertAgreementOnProposal(t, got, proposals)
	t.Logf("decided %q despite the byzantine party", decided)
	for i := 1; i < 4; i++ {
		if n := c.Regs[i].Snapshot().Counter("router.panics"); n != 0 {
			t.Errorf("party %d: router.panics = %d, want the trial-1 LEADCOIN dropped", i, n)
		}
	}
}

// TestByzantineCannotForgeDecision checks that a flood of malformed
// protocol messages across many instances never crashes honest parties or
// causes disagreement.
func TestByzantineCannotForgeDecision(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 23, Corrupted: []int{3}})
	ep := c.Net.Endpoint(3)
	// Fuzz-ish garbage across protocols and instances.
	for i := 0; i < 50; i++ {
		ep.Send(wire.Message{
			To:       i % 3,
			Protocol: []string{"mvba", "aba", "cbc", "rbc"}[i%4],
			Instance: fmt.Sprintf("fz/%d", i%5),
			Type:     []string{"VOTE", "BVAL", "SEND", "FINAL", "REQ", "ANS", "XXX"}[i%7],
			Payload:  []byte{byte(i), 0xFF, 0x00, byte(i * 7)},
		})
	}
	proposals := map[int][]byte{
		0: []byte("p0"),
		1: []byte("p1"),
		2: []byte("p2"),
	}
	got := runMVBA(t, c, "fz/0", proposals, nil)
	assertAgreementOnProposal(t, got, proposals)
}

// TestClientIdsCannotVote: a quorum of abstain-VOTEs from client endpoints
// (the transport admits them under any index >= n) would let a party
// input 0 without having heard a single server. The router drops them.
func TestClientIdsCannotVote(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 25, Clients: 3, Observe: true})
	const tag = "forged-votes"
	for client := 4; client < 7; client++ {
		c.Net.Endpoint(client).Send(wire.Message{
			To: 0, Protocol: mvba.Protocol, Instance: tag, Type: "VOTE",
			Payload: wire.MustMarshalBody(voteBody{Trial: 1}),
		})
	}
	waitCounter(t, c, 0, "router.dropped.nonserver", 3)
	proposals := map[int][]byte{}
	for i := 0; i < 4; i++ {
		proposals[i] = []byte(fmt.Sprintf("proposal-of-%d", i))
	}
	assertAgreementOnProposal(t, runMVBA(t, c, tag, proposals, nil), proposals)
}

func waitCounter(t *testing.T, c *testutil.Cluster, party int, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for c.Regs[party].Snapshot().Counter(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("party %d: %s = %d, want %d", party, name, c.Regs[party].Snapshot().Counter(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdScheduler delivers a random pending message among those hold does
// not keep back; hold is told what has been delivered so far.
type holdScheduler struct {
	mu        sync.Mutex
	rng       *mrand.Rand
	hold      func(s *holdScheduler, m *wire.Message) bool
	delivered []wire.Message
}

func (s *holdScheduler) Next(pending []wire.Message) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var free []int
	for i := range pending {
		if !s.hold(s, &pending[i]) {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	idx := free[s.rng.Intn(len(free))]
	s.delivered = append(s.delivered, pending[idx])
	return idx
}

// saw reports whether a message matching the predicate has been
// delivered; call it from hold (the lock is held) or through sawNow.
func (s *holdScheduler) saw(match func(m *wire.Message) bool) bool {
	for i := range s.delivered {
		if match(&s.delivered[i]) {
			return true
		}
	}
	return false
}

func (s *holdScheduler) sawNow(match func(m *wire.Message) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saw(match)
}

// byzantineLeader drives corrupted party 0, the public leader of trial 1.
type byzantineLeader struct {
	t        *testing.T
	c        *testutil.Cluster
	tag      string
	slot     string // its consistent broadcast
	proposal []byte
	inbox    chan wire.Message
	backlog  []wire.Message // received, not yet awaited
}

func newByzantineLeader(t *testing.T, c *testutil.Cluster, tag string) *byzantineLeader {
	t.Helper()
	b := &byzantineLeader{t: t, c: c, tag: tag, proposal: []byte("the leader's proposal"), inbox: make(chan wire.Message, 4096)}
	b.slot = cbc.InstanceID(0, "m/"+tag)
	go func() {
		for {
			m, ok := c.Net.Endpoint(0).Recv()
			if !ok {
				return
			}
			b.inbox <- m
		}
	}()
	return b
}

// await returns the first message to the corrupted party that match
// accepts, from the backlog or as it arrives. What it passes over stays in
// the backlog: collecting signature shares must not eat the FINAL a later
// step of the test waits for.
func (b *byzantineLeader) await(what string, match func(m *wire.Message) bool) wire.Message {
	b.t.Helper()
	for i := range b.backlog {
		if m := b.backlog[i]; match(&m) {
			b.backlog = append(b.backlog[:i], b.backlog[i+1:]...)
			return m
		}
	}
	deadline := time.After(60 * time.Second)
	for {
		select {
		case m := <-b.inbox:
			if match(&m) {
				return m
			}
			b.backlog = append(b.backlog, m)
		case <-deadline:
			b.t.Fatalf("timeout: %s", what)
		}
	}
}

func (b *byzantineLeader) send(to int, protocol, instance, msgType string, body any) {
	b.c.Net.Endpoint(0).Send(wire.Message{
		To: to, Protocol: protocol, Instance: instance,
		Type: msgType, Payload: wire.MustMarshalBody(body),
	})
}

// certify c-broadcasts the proposal to the given parties up to, but not
// including, FINAL, and returns the certificate it combines from their
// shares and its own. The statement is spelled out as internal/cbc signs
// it; cbc.VerifyCertificate pins the two together.
func (b *byzantineLeader) certify(to ...int) (digest [32]byte, cert []byte) {
	b.t.Helper()
	for _, p := range to {
		b.send(p, cbc.Protocol, b.slot, "SEND", struct{ Payload []byte }{b.proposal})
	}
	scheme := b.c.Pub.QuorumSig()
	digest = sha256.Sum256(b.proposal)
	stmt := []byte("cbc|" + b.slot + "|" + hex.EncodeToString(digest[:]))
	own, err := scheme.SignShare(b.c.Secrets[0].SigQuorum, stmt, rand.Reader)
	if err != nil {
		b.t.Fatal(err)
	}
	shares := []thresig.Share{own}
	for len(shares) <= len(to) {
		var body struct{ Share thresig.Share }
		b.await("collecting shares", func(m *wire.Message) bool {
			return m.Protocol == cbc.Protocol && m.Instance == b.slot && m.Type == "SHARE" &&
				wire.UnmarshalBody(m.Payload, &body) == nil
		})
		shares = append(shares, body.Share)
	}
	if cert, err = scheme.Combine(stmt, shares); err != nil {
		b.t.Fatal(err)
	}
	if err := cbc.VerifyCertificate(scheme, b.slot, b.proposal, cert); err != nil {
		b.t.Fatal(err)
	}
	return digest, cert
}

// startHonest creates and starts the agreement on parties 1..3 and returns
// the channel their decisions arrive on.
func (b *byzantineLeader) startHonest() (proposals map[int][]byte, decisions chan decision) {
	b.t.Helper()
	proposals = map[int][]byte{1: []byte("honest-1"), 2: []byte("honest-2"), 3: []byte("honest-3")}
	decisions = make(chan decision, 8)
	for i, p := range proposals {
		i, p := i, p
		var inst *mvba.MVBA
		b.c.Routers[i].DoSync(func() {
			inst = mvba.New(mvba.Config{
				Router: b.c.Routers[i], Struct: b.c.Struct, Instance: b.tag, Leader: 0,
				Coin: b.c.Pub.Coin, CoinKey: b.c.Secrets[i].Coin,
				Scheme: b.c.Pub.QuorumSig(), Key: b.c.Secrets[i].SigQuorum,
				Decide: func(v []byte) { decisions <- decision{party: i, value: v} },
			})
		})
		if err := inst.Start(p); err != nil {
			b.t.Fatal(err)
		}
	}
	return proposals, decisions
}

// expectLeaderDecided requires all three honest parties to decide the
// corrupted leader's proposal, once each.
func (b *byzantineLeader) expectLeaderDecided(decisions chan decision) {
	b.t.Helper()
	got := map[int]bool{}
	deadline := time.After(120 * time.Second)
	for len(got) < 3 {
		select {
		case d := <-decisions:
			if got[d.party] || !bytes.Equal(d.value, b.proposal) {
				b.t.Fatalf("party %d decided %q (again: %v)", d.party, d.value, got[d.party])
			}
			got[d.party] = true
		case <-deadline:
			b.t.Fatalf("timeout: %d of 3 decisions", len(got))
		}
	}
}

func counterSum(c *testutil.Cluster, name string) (n int64) {
	for _, reg := range c.Regs {
		if reg != nil {
			n += reg.Snapshot().Counter(name)
		}
	}
	return n
}

// TestByzantineLeaderSendsToBareQuorum: trial 1's leader SENDs its
// proposal to parties 1 and 2 only — with its own share a bare quorum —
// and FINALs to everyone. Party 3 is certified without the payload: it
// enters phase 2, votes yes and inputs 1 like the others, and at the
// 1-decision fetches the proposal with a REQ that carries the certificate.
// The leader is known before anything is sent, so the honest parties can
// vote before the test has combined the leader's certificate: their
// trial-1 votes are held until the leader's FINAL has reached their
// recipient, because a party that saw a quorum of votes first would input
// 0, and trial 1 could decide against a leader that did nothing wrong yet.
func TestByzantineLeaderSendsToBareQuorum(t *testing.T) {
	sched := &holdScheduler{rng: mrand.New(mrand.NewSource(27))}
	sched.hold = func(s *holdScheduler, m *wire.Message) bool {
		return m.Protocol == mvba.Protocol && m.Type == "VOTE" && m.From != 0 && !s.saw(func(f *wire.Message) bool {
			return f.Protocol == cbc.Protocol && f.Type == "FINAL" && f.From == 0 && f.To == m.To
		})
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Scheduler: sched, Observe: true, Corrupted: []int{0}})
	b := newByzantineLeader(t, c, "bare")
	_, decisions := b.startHonest()
	digest, cert := b.certify(1, 2)
	for to := 1; to < 4; to++ {
		b.send(to, cbc.Protocol, b.slot, "FINAL", certBody{Digest: digest, Cert: cert})
	}
	b.expectLeaderDecided(decisions)
	if n := c.Regs[3].Snapshot().Counter("mvba.decide.fetched"); n != 1 {
		t.Fatalf("party 3: mvba.decide.fetched = %d, want 1", n)
	}
	if n := counterSum(c, "cbc.fetch.sent"); n != 1 {
		t.Fatalf("cbc.fetch.sent = %d over all parties, want party 3's one", n)
	}
	m := b.await("the REQ never reached the leader", func(m *wire.Message) bool { return m.Type == "REQ" })
	var req certBody
	if err := wire.UnmarshalBody(m.Payload, &req); err != nil || m.From != 3 || req.Digest != digest || !bytes.Equal(req.Cert, cert) {
		t.Fatalf("REQ from %d carries %x (%v), want party 3's with the certificate", m.From, req.Digest[:4], err)
	}
}

// TestByzantineLeaderShowsCertificateToOne: trial 1's leader SENDs to
// parties 2 and 3, withholds FINAL, and shows the certificate to party 1
// only — which never got the payload — in its own yes-vote; parties 2 and
// 3 get votes whose certificates are for another instance and another
// digest. Party 1 inputs 1, the others 0, and the leader (with the
// network: BVAL(0) is starved) pushes the binary agreement to 1. Party 1
// then holds a certificate and no payload, parties 2 and 3 a payload and
// no certificate: party 1's REQ carries the certificate to them, they
// deliver and answer, and all three decide the leader's proposal.
func TestByzantineLeaderShowsCertificateToOne(t *testing.T) {
	isVote := func(from, to int) func(m *wire.Message) bool {
		return func(m *wire.Message) bool {
			return m.Protocol == mvba.Protocol && m.Type == "VOTE" && m.From == from && m.To == to
		}
	}
	sched := &holdScheduler{rng: mrand.New(mrand.NewSource(29))}
	sched.hold = func(s *holdScheduler, m *wire.Message) bool {
		switch {
		case m.Protocol == mvba.Protocol && m.Type == "VOTE" && m.To == 1 && m.From != 0:
			// Party 1 sees the leader's vote before a quorum of the others'.
			return !s.saw(isVote(0, 1))
		case m.Protocol == aba.Protocol && m.Type == "BVAL":
			var body struct {
				Round int
				Value bool
			}
			return wire.UnmarshalBody(m.Payload, &body) == nil && !body.Value
		}
		return false
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Scheduler: sched, Observe: true, Corrupted: []int{0}})
	b := newByzantineLeader(t, c, "one")
	_, decisions := b.startHonest()
	digest, cert := b.certify(2, 3)

	// A certificate of another instance: party 1's own broadcast, FINALed
	// to everyone — possibly while certify was still collecting the
	// leader's signature shares.
	var elsewhere certBody
	m := b.await("party 1 never finished its broadcast", func(m *wire.Message) bool {
		return m.Protocol == cbc.Protocol && m.Type == "FINAL" && m.From == 1
	})
	if err := wire.UnmarshalBody(m.Payload, &elsewhere); err != nil {
		t.Fatal(err)
	}
	b.send(2, mvba.Protocol, b.tag, "VOTE", voteBody{Trial: 1, HasCert: true, Digest: elsewhere.Digest, Cert: elsewhere.Cert})
	b.send(3, mvba.Protocol, b.tag, "VOTE", voteBody{Trial: 1, HasCert: true, Digest: sha256.Sum256([]byte("another")), Cert: cert})
	waitCounter(t, c, 2, "cbc.cert.rejected", 1)
	waitCounter(t, c, 3, "cbc.cert.rejected", 1)

	b.send(1, mvba.Protocol, b.tag, "VOTE", voteBody{Trial: 1, HasCert: true, Digest: digest, Cert: cert})
	for to := 1; to < 4; to++ {
		b.send(to, aba.Protocol, b.tag+"/t1", "BVAL", struct {
			Round int
			Value bool
		}{1, true})
	}
	b.expectLeaderDecided(decisions)
	if n := c.Regs[1].Snapshot().Counter("cbc.cert.early"); n != 1 {
		t.Fatalf("party 1: cbc.cert.early = %d, want 1 (a certificate and no payload)", n)
	}
	if n := c.Regs[1].Snapshot().Counter("mvba.decide.fetched"); n != 1 {
		t.Fatalf("party 1: mvba.decide.fetched = %d, want 1", n)
	}
	// Its REQ carried the certificate: that is what certified a holder.
	if !sched.sawNow(func(m *wire.Message) bool {
		var req certBody
		return m.Protocol == cbc.Protocol && m.Instance == b.slot && m.Type == "REQ" && m.From == 1 &&
			wire.UnmarshalBody(m.Payload, &req) == nil && req.Digest == digest && bytes.Equal(req.Cert, cert)
	}) {
		t.Fatal("no REQ from party 1 with the certificate was delivered")
	}
	if n := counterSum(c, "cbc.fetch.served"); n < 1 {
		t.Fatal("nobody answered a REQ")
	}
}

// TestByzantineTrialFlood: corrupted party 0 names every trial up to 10⁵
// in a VOTE to party 1, whose instance has not reached trial 1 (nobody
// else runs it). Party 1 keeps state for at most LookAhead trials and
// counts every other VOTE as dropped.
func TestByzantineTrialFlood(t *testing.T) {
	const victim, last = 1, 100000
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Seed: 53, Observe: true, Corrupted: []int{0, 2, 3}})
	var inst *mvba.MVBA
	c.Routers[victim].DoSync(func() {
		inst = mvba.New(mvba.Config{Router: c.Routers[victim], Struct: c.Struct, Instance: "flood",
			Coin: c.Pub.Coin, CoinKey: c.Secrets[victim].Coin,
			Scheme: c.Pub.QuorumSig(), Key: c.Secrets[victim].SigQuorum})
	})
	ep := c.Net.Endpoint(0)
	dispatched := func() int64 { return c.Regs[victim].Snapshot().Histograms["router.dispatch.latency"].Count }
	deadline := time.Now().Add(120 * time.Second)
	for k := 1; k <= last; k++ {
		ep.Send(wire.Message{To: victim, Protocol: mvba.Protocol, Instance: "flood", Type: "VOTE",
			Payload: wire.MustMarshalBody(voteBody{Trial: k})})
		// Paced, so the simulator's pending pool stays small.
		for k%500 == 0 && dispatched() < int64(k)-500 {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d flood messages dispatched", dispatched(), k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitCounter(t, c, victim, "mvba.ahead.dropped", last-mvba.LookAhead+1)
	var states int
	c.Routers[victim].DoSync(func() { states = inst.TrialStates() })
	if states > mvba.LookAhead {
		t.Fatalf("party 1 holds %d trials, want at most %d", states, mvba.LookAhead)
	}
}
