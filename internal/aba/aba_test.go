package aba_test

import (
	"fmt"
	"testing"
	"time"

	"sintra/internal/aba"
	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

type decision struct {
	party int
	value bool
	round int // the party's round when it decided
}

// runAgreement spawns instances on the given parties with the given inputs
// and returns one decision per party.
func runAgreement(t *testing.T, c *testutil.Cluster, tag string, inputs map[int]bool) map[int]bool {
	t.Helper()
	decided, _ := launch(t, c, tag, inputs)
	got := make(map[int]bool, len(inputs))
	deadline := time.After(60 * time.Second)
	for len(got) < len(inputs) {
		select {
		case d := <-decided:
			if _, dup := got[d.party]; dup {
				t.Fatalf("party %d decided twice", d.party)
			}
			got[d.party] = d.value
		case <-deadline:
			t.Fatalf("timeout: %d of %d decisions (tag %s)", len(got), len(inputs), tag)
		}
	}
	return got
}

func assertAgreement(t *testing.T, got map[int]bool) bool {
	t.Helper()
	var first bool
	var init bool
	for p, v := range got {
		if !init {
			first, init = v, true
			continue
		}
		if v != first {
			t.Fatalf("agreement violated: party %d decided %v, others %v", p, v, first)
		}
	}
	return first
}

func TestUnanimousValidity(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 2})
	for _, input := range []bool{false, true} {
		inputs := map[int]bool{0: input, 1: input, 2: input, 3: input}
		got := runAgreement(t, c, fmt.Sprintf("unanimous-%v", input), inputs)
		if v := assertAgreement(t, got); v != input {
			t.Fatalf("validity violated: all proposed %v, decided %v", input, v)
		}
	}
}

func TestSplitInputsAgree(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 3})
	for k := 0; k < 4; k++ {
		inputs := map[int]bool{}
		for i := 0; i < 4; i++ {
			inputs[i] = (i+k)%2 == 0
		}
		got := runAgreement(t, c, fmt.Sprintf("split-%d", k), inputs)
		assertAgreement(t, got)
	}
}

func TestCrashFaultTolerance(t *testing.T) {
	// Party 3 never starts; the remaining three must still terminate.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 5, Corrupted: []int{3}})
	inputs := map[int]bool{0: true, 1: false, 2: true}
	got := runAgreement(t, c, "crash", inputs)
	assertAgreement(t, got)
}

func TestManySequentialAgreements(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 7})
	ones := 0
	for k := 0; k < 8; k++ {
		inputs := map[int]bool{0: k%2 == 0, 1: k%3 == 0, 2: true, 3: false}
		got := runAgreement(t, c, fmt.Sprintf("seq-%d", k), inputs)
		if assertAgreement(t, got) {
			ones++
		}
	}
	t.Logf("decided 1 in %d of 8 agreements", ones)
}

func TestGeneralAdversaryStructureAgreement(t *testing.T) {
	// Example 1: all of class a (4 of 9 servers) is crashed; the honest
	// five must still reach agreement.
	st := adversary.Example1()
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 11, Corrupted: []int{0, 1, 2, 3}})
	inputs := map[int]bool{4: true, 5: false, 6: true, 7: false, 8: true}
	got := runAgreement(t, c, "ex1", inputs)
	assertAgreement(t, got)
}

func TestExample2SiteAndOSFailure(t *testing.T) {
	// Example 2: one full site plus one full OS (7 of 16 servers) crashed;
	// any threshold scheme on 16 servers tolerates at most 5.
	st := adversary.Example2()
	var corrupted []int
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for _, p := range []int{adversary.Example2Party(0, i), adversary.Example2Party(i, 0)} {
			if !seen[p] {
				seen[p] = true
				corrupted = append(corrupted, p)
			}
		}
	}
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 13, Corrupted: corrupted})
	inputs := map[int]bool{}
	for i := 0; i < 16; i++ {
		if !seen[i] {
			inputs[i] = i%2 == 0
		}
	}
	got := runAgreement(t, c, "ex2", inputs)
	assertAgreement(t, got)
}

func TestAdversarialSchedulerTermination(t *testing.T) {
	// Starve one honest party's traffic: the protocol must still
	// terminate (asynchronous liveness), and the starved party must still
	// decide the same value eventually.
	st := adversary.MustThreshold(4, 1)
	sched := netsim.NewDelayScheduler(17, func(m *wire.Message) bool {
		return m.From == 2 || m.To == 2
	})
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: sched})
	inputs := map[int]bool{0: true, 1: false, 2: true, 3: false}
	got := runAgreement(t, c, "starved", inputs)
	assertAgreement(t, got)
}

func TestByzantineDoubleVoter(t *testing.T) {
	// Party 0 is corrupted: it BVALs and AUXes both values in round 1 and
	// sends conflicting DECIDED claims. The three honest parties must
	// agree regardless.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 19, Corrupted: []int{0}})
	tag := "byz"
	doubleVote(c, tag)

	inputs := map[int]bool{1: false, 2: false, 3: true}
	got := runAgreement(t, c, tag, inputs)
	assertAgreement(t, got)
}

func TestDecisionStableAcrossSeeds(t *testing.T) {
	// With unanimous input the decision must equal the input for every
	// scheduler seed (validity is deterministic, not probabilistic).
	st := adversary.MustThreshold(4, 1)
	for seed := int64(1); seed <= 5; seed++ {
		c := testutil.NewCluster(t, st, testutil.Options{Seed: seed})
		inputs := map[int]bool{0: true, 1: true, 2: true, 3: true}
		got := runAgreement(t, c, fmt.Sprintf("stable-%d", seed), inputs)
		if v := assertAgreement(t, got); !v {
			t.Fatalf("seed %d: validity violated", seed)
		}
		c.Stop()
	}
}

func TestByzantineCoinShareFlood(t *testing.T) {
	// Party 0 floods forged coin shares and oversized rounds; the DLEQ
	// proofs reject the shares and the honest parties agree regardless.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 41, Corrupted: []int{0}})
	ep := c.Net.Endpoint(0)
	tag := "coinflood"
	g := c.Pub.Coin.Group()
	for r := 1; r <= 3; r++ {
		for to := 1; to < 4; to++ {
			forged := []coin.Share{{Party: 0, ID: 0, Value: g.Generator(), Proof: nil}}
			ep.Send(wire.Message{
				To: to, Protocol: aba.Protocol, Instance: tag,
				Type: "COIN", Payload: wire.MustMarshalBody(coinRoundBody{Round: r, Shares: forged}),
			})
		}
	}
	// Also flood BVALs for absurd rounds to probe state growth handling.
	for to := 1; to < 4; to++ {
		ep.Send(wire.Message{
			To: to, Protocol: aba.Protocol, Instance: tag,
			Type: "BVAL", Payload: wire.MustMarshalBody(roundBody{Round: 1 << 20, Value: true}),
		})
	}
	inputs := map[int]bool{1: true, 2: false, 3: false}
	got := runAgreement(t, c, tag, inputs)
	assertAgreement(t, got)
}

func TestAgreementWithForceCertScheme(t *testing.T) {
	// The agreement layer must be indifferent to the signature scheme the
	// surrounding deployment uses (coin only); exercised with ForceCert
	// clusters to cover the dealer path.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 43, ForceCert: true})
	inputs := map[int]bool{0: true, 1: true, 2: false, 3: false}
	assertAgreement(t, runAgreement(t, c, "fc", inputs))
}

// TestClientIdsAreNotParties: the transport admits unauthenticated clients
// under any index >= n, and the DECIDED rule adopts a value that a set
// with an honest member reports — a popcount for a threshold structure.
// Two client endpoints reporting DECIDED(true) to party 0 once made it
// decide true while the other three, all with input false, decided false.
// The router now drops what a non-server sends to a server protocol.
func TestClientIdsAreNotParties(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 19, Clients: 2, Observe: true})
	const tag = "forged-decided"
	for _, client := range []int{4, 5} {
		c.Net.Endpoint(client).Send(wire.Message{
			To: 0, Protocol: aba.Protocol, Instance: tag, Type: "DECIDED",
			Payload: wire.MustMarshalBody(struct{ Value bool }{true}),
		})
	}
	deadline := time.Now().Add(20 * time.Second)
	for c.Regs[0].Snapshot().Counter("router.dropped.nonserver") < 2 {
		if time.Now().After(deadline) {
			t.Fatal("party 0 never dropped the clients' DECIDED messages")
		}
		time.Sleep(time.Millisecond)
	}
	got := runAgreement(t, c, tag, map[int]bool{0: false, 1: false, 2: false, 3: false})
	for p, v := range got {
		if v {
			t.Fatalf("party %d decided true: every server proposed false", p)
		}
	}
}

// TestByzantineRoundFlood: corrupted party 0 names every round up to 10⁵
// in a BVAL to party 1, which sits in round 1 (nobody else runs the
// instance). Party 1 keeps state for at most LookAhead rounds and counts
// every other BVAL as dropped.
func TestByzantineRoundFlood(t *testing.T) {
	const victim, last = 1, 100000
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Seed: 47, Observe: true, Corrupted: []int{0, 2, 3}})
	var inst *aba.ABA
	c.Routers[victim].DoSync(func() {
		inst = aba.New(aba.Config{Router: c.Routers[victim], Struct: c.Struct, Instance: "flood",
			Coin: c.Pub.Coin, CoinKey: c.Secrets[victim].Coin})
	})
	if err := inst.Start(true); err != nil {
		t.Fatal(err)
	}
	round := func() (r int) {
		c.Routers[victim].DoSync(func() { r = inst.Round() })
		return r
	}
	for deadline := time.Now().Add(30 * time.Second); round() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("party 1 never started")
		}
	}
	flood(t, c, victim, last, func(k int) wire.Message {
		return wire.Message{Protocol: aba.Protocol, Instance: "flood", Type: "BVAL",
			Payload: wire.MustMarshalBody(roundBody{Round: k, Value: true})}
	}, "aba.ahead.dropped", last-aba.LookAhead)
	var states int
	c.Routers[victim].DoSync(func() { states = inst.RoundStates() })
	if states > aba.LookAhead || round() != 1 {
		t.Fatalf("party 1 holds %d rounds in round %d, want at most %d in round 1", states, round(), aba.LookAhead)
	}
}

// flood has corrupted party 0 send msg(k) to the victim for k = 1…last,
// paced so the simulator's pending pool stays small, and waits until the
// victim's counter reaches want.
func flood(t *testing.T, c *testutil.Cluster, victim, last int, msg func(k int) wire.Message, counter string, want int) {
	t.Helper()
	const pace = 500
	ep := c.Net.Endpoint(0)
	deadline := time.Now().Add(120 * time.Second)
	dispatched := func() int64 { return c.Regs[victim].Snapshot().Histograms["router.dispatch.latency"].Count }
	base := dispatched()
	for k := 1; k <= last; k++ {
		m := msg(k)
		m.To = victim
		ep.Send(m)
		for k%pace == 0 && dispatched() < base+int64(k)-pace {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d flood messages dispatched", dispatched()-base, k)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for c.Regs[victim].Snapshot().Counter(counter) < int64(want) {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", counter, c.Regs[victim].Snapshot().Counter(counter), want)
		}
		time.Sleep(time.Millisecond)
	}
	if n := c.Regs[victim].Snapshot().Counter(counter); n != int64(want) {
		t.Fatalf("%s = %d, want %d", counter, n, want)
	}
}
