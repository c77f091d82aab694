package mvba_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/mvba"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

type decision struct {
	party int
	value []byte
}

// runMVBA spawns instances on the given parties with per-party proposals
// and waits for all of them to decide.
func runMVBA(t *testing.T, c *testutil.Cluster, tag string, proposals map[int][]byte, pred func([]byte, int) bool) map[int][]byte {
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
