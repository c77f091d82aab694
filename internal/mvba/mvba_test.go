package mvba_test

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"sintra/internal/aba"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/mvba"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

type decision struct {
	party int
	value []byte
}

// runMVBA spawns instances on the given parties with per-party proposals,
// trial 1 led by party 0, and waits for all of them to decide.
func runMVBA(t *testing.T, c *testutil.Cluster, tag string, proposals map[int][]byte, pred func([]byte, int) bool) map[int][]byte {
	t.Helper()
	return runLedMVBA(t, c, tag, 0, proposals, pred)
}

// runLedMVBA is runMVBA with trial 1 led by leader.
func runLedMVBA(t *testing.T, c *testutil.Cluster, tag string, leader int, proposals map[int][]byte, pred func([]byte, int) bool) map[int][]byte {
	t.Helper()
	ch := make(chan decision, len(proposals)*2)
	insts := make(map[int]*mvba.MVBA, len(proposals))
	for i := range proposals {
		i := i
		c.Routers[i].DoSync(func() {
			insts[i] = mvba.New(mvba.Config{
				Router:    c.Routers[i],
				Struct:    c.Struct,
				Instance:  tag,
				Leader:    leader,
				Coin:      c.Pub.Coin,
				CoinKey:   c.Secrets[i].Coin,
				Scheme:    c.Pub.QuorumSig(),
				Key:       c.Secrets[i].SigQuorum,
				Predicate: pred,
				Decide:    func(v []byte) { ch <- decision{party: i, value: v} },
			})
		})
	}
	for i, p := range proposals {
		if err := insts[i].Start(p); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[int][]byte, len(proposals))
	deadline := time.After(120 * time.Second)
	for len(got) < len(proposals) {
		select {
		case d := <-ch:
			if _, dup := got[d.party]; dup {
				t.Fatalf("party %d decided twice", d.party)
			}
			got[d.party] = d.value
		case <-deadline:
			t.Fatalf("timeout: %d of %d decisions", len(got), len(proposals))
		}
	}
	return got
}

// assertAgreementOnProposal checks all parties decided the same value and
// that it is one of the proposals.
func assertAgreementOnProposal(t *testing.T, got map[int][]byte, proposals map[int][]byte) []byte {
	t.Helper()
	var first []byte
	for _, v := range got {
		first = v
		break
	}
	for p, v := range got {
		if !bytes.Equal(v, first) {
			t.Fatalf("agreement violated at party %d", p)
		}
	}
	for _, p := range proposals {
		if bytes.Equal(first, p) {
			return first
		}
	}
	t.Fatalf("decided value %q was never proposed", first)
	return nil
}

func TestAgreementOnSomeProposal(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 2})
	proposals := map[int][]byte{}
	for i := 0; i < 4; i++ {
		proposals[i] = []byte(fmt.Sprintf("proposal-of-%d", i))
	}
	got := runMVBA(t, c, "basic", proposals, nil)
	v := assertAgreementOnProposal(t, got, proposals)
	t.Logf("decided %q", v)
}

func TestUnanimousProposalWins(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 3})
	proposals := map[int][]byte{}
	for i := 0; i < 4; i++ {
		proposals[i] = []byte("the only proposal")
	}
	got := runMVBA(t, c, "unanimous", proposals, nil)
	if !bytes.Equal(assertAgreementOnProposal(t, got, proposals), []byte("the only proposal")) {
		t.Fatal("wrong decision")
	}
}

func TestExternalValidity(t *testing.T) {
	// Predicate only accepts values with an "ok:" prefix; the decided
	// value must satisfy it even though one party proposes garbage via the
	// raw network (a corrupted proposer).
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 5, Corrupted: []int{3}})
	pred := func(p []byte, _ int) bool { return bytes.HasPrefix(p, []byte("ok:")) }
	proposals := map[int][]byte{
		0: []byte("ok:zero"),
		1: []byte("ok:one"),
		2: []byte("ok:two"),
	}
	got := runMVBA(t, c, "validity", proposals, pred)
	v := assertAgreementOnProposal(t, got, proposals)
	if !pred(v, -1) {
		t.Fatalf("decided invalid value %q", v)
	}
}

func TestCrashedPartyProgress(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 7, Corrupted: []int{2}})
	proposals := map[int][]byte{
		0: []byte("a"),
		1: []byte("b"),
		3: []byte("c"),
	}
	got := runMVBA(t, c, "crash", proposals, nil)
	assertAgreementOnProposal(t, got, proposals)
}

func TestSequentialInstances(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 9})
	for k := 0; k < 3; k++ {
		proposals := map[int][]byte{}
		for i := 0; i < 4; i++ {
			proposals[i] = []byte(fmt.Sprintf("r%d-p%d", k, i))
		}
		got := runMVBA(t, c, fmt.Sprintf("seq-%d", k), proposals, nil)
		assertAgreementOnProposal(t, got, proposals)
	}
}

func TestGeneralAdversaryMVBA(t *testing.T) {
	// Example 1 with the whole class a crashed.
	st := adversary.Example1()
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 11, Corrupted: []int{0, 1, 2, 3}})
	proposals := map[int][]byte{}
	for _, i := range []int{4, 5, 6, 7, 8} {
		proposals[i] = []byte(fmt.Sprintf("general-%d", i))
	}
	got := runMVBA(t, c, "ex1", proposals, nil)
	assertAgreementOnProposal(t, got, proposals)
}

func TestAdversarialSchedulerProgress(t *testing.T) {
	// Starve party 1 entirely; the rest must still decide, and party 1
	// must catch up afterwards.
	st := adversary.MustThreshold(4, 1)
	sched := netsim.NewDelayScheduler(13, func(m *wire.Message) bool {
		return m.To == 1
	})
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: sched})
	proposals := map[int][]byte{}
	for i := 0; i < 4; i++ {
		proposals[i] = []byte(fmt.Sprintf("slow-%d", i))
	}
	got := runMVBA(t, c, "starved", proposals, nil)
	assertAgreementOnProposal(t, got, proposals)
}

// TestTrialOneElectsNoCoin: trial 1's leader is public. With every VOTE
// held until the leader's FINAL has reached its recipient, each party holds
// the leader's certificate before it can count a quorum of votes, so all
// input 1 and trial 1 decides the leader's proposal: no LEADCOIN is on the
// wire and no binary agreement runs but trial 1's.
func TestTrialOneElectsNoCoin(t *testing.T) {
	const leader, tag = 2, "public"
	final := cbc.InstanceID(leader, "m/"+tag)
	sched := &holdScheduler{rng: mrand.New(mrand.NewSource(31))}
	sched.hold = func(s *holdScheduler, m *wire.Message) bool {
		return m.Protocol == mvba.Protocol && m.Type == "VOTE" && !s.saw(func(f *wire.Message) bool {
			return f.Instance == final && f.Type == "FINAL" && f.To == m.To
		})
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: sched})
	proposals := map[int][]byte{}
	for i := 0; i < 4; i++ {
		proposals[i] = []byte(fmt.Sprintf("proposal-of-%d", i))
	}
	for p, v := range runLedMVBA(t, c, tag, leader, proposals, nil) {
		if !bytes.Equal(v, proposals[leader]) {
			t.Errorf("party %d decided %q, want the leader's %q", p, v, proposals[leader])
		}
	}
	sched.mu.Lock()
	defer sched.mu.Unlock()
	for _, m := range sched.delivered {
		if m.Protocol == mvba.Protocol && m.Type == "LEADCOIN" {
			t.Errorf("LEADCOIN from %d to %d delivered", m.From, m.To)
		}
		if m.Protocol == aba.Protocol && m.Instance != tag+"/t1" {
			t.Errorf("aba %s for instance %s delivered, want only %s/t1", m.Type, m.Instance, tag)
		}
	}
}

// TestStarvedDesignatedLeader: the adversary knows trial 1's leader before
// the run and holds all of its traffic until a trial-2 LEADCOIN has been
// delivered. The other three, a quorum, vote against the leader they have
// not certified, decide 0 in trial 1 without a leader coin, and toss one
// for trial 2; every party, the starved one included, decides the same
// proposal.
func TestStarvedDesignatedLeader(t *testing.T) {
	const leader = 1
	sched := &holdScheduler{rng: mrand.New(mrand.NewSource(33))}
	sched.hold = func(s *holdScheduler, m *wire.Message) bool {
		return (m.From == leader || m.To == leader) && !s.saw(func(f *wire.Message) bool { return leadCoinTrial(f) == 2 })
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: sched})
	proposals := map[int][]byte{}
	for i := 0; i < 4; i++ {
		proposals[i] = []byte(fmt.Sprintf("starved-%d", i))
	}
	assertAgreementOnProposal(t, runLedMVBA(t, c, "starved-leader", leader, proposals, nil), proposals)
	if sched.sawNow(func(m *wire.Message) bool { return leadCoinTrial(m) == 1 }) {
		t.Error("a trial-1 LEADCOIN was delivered")
	}
	if !sched.sawNow(func(m *wire.Message) bool { return leadCoinTrial(m) == 2 }) {
		t.Error("no trial-2 LEADCOIN was delivered")
	}
}

// leadCoinTrial returns the trial an mvba LEADCOIN is for, and 0 for any
// other message.
func leadCoinTrial(m *wire.Message) int {
	var body leadCoinBody
	if m.Protocol != mvba.Protocol || m.Type != "LEADCOIN" || wire.UnmarshalBody(m.Payload, &body) != nil {
		return 0
	}
	return body.Trial
}
