package aba_test

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sintra/internal/aba"
	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// The wire bodies of the agreement, field for field.
type roundBody struct {
	Round int
	Value bool
}

type coinRoundBody struct {
	Round  int
	Shares []coin.Share
}

// roundOf returns the round an aba BVAL, AUX or COIN is for, and 0 for
// any other message.
func roundOf(m *wire.Message) int {
	if m.Protocol != aba.Protocol {
		return 0
	}
	switch m.Type {
	case "BVAL", "AUX":
		var b roundBody
		if wire.UnmarshalBody(m.Payload, &b) == nil {
			return b.Round
		}
	case "COIN":
		var b coinRoundBody
		if wire.UnmarshalBody(m.Payload, &b) == nil {
			return b.Round
		}
	}
	return 0
}

func valueOf(m *wire.Message) bool {
	var b roundBody
	_ = wire.UnmarshalBody(m.Payload, &b)
	return b.Value
}

// drainProtocol marks the message drain sends.
const drainProtocol = "drain"

// holdScheduler delivers a random pending message other than those hold
// claims; when it claims all of them, Next waits for new traffic. Before
// each pick it shows every pending message to see, and it shows the one
// it delivers to deliver. The hooks run under mu, which a test takes to
// read what they recorded.
type holdScheduler struct {
	mu      sync.Mutex
	rng     *rand.Rand
	hold    func(m *wire.Message) bool
	see     func(m *wire.Message)
	deliver func(m *wire.Message)
	drained chan struct{}
}

func newHoldScheduler(seed int64) *holdScheduler {
	return &holdScheduler{rng: rand.New(rand.NewSource(seed)), drained: make(chan struct{})}
}

func (s *holdScheduler) Next(pending []wire.Message) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var free []int
	for i := range pending {
		m := &pending[i]
		if s.see != nil {
			s.see(m)
		}
		if m.Protocol != drainProtocol && (s.hold == nil || !s.hold(m)) {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		if len(pending) == 1 && pending[0].Protocol == drainProtocol {
			close(s.drained)
			return 0
		}
		return -1
	}
	i := free[s.rng.Intn(len(free))]
	if s.deliver != nil {
		s.deliver(&pending[i])
	}
	return i
}

// drain returns once everything sent so far has been delivered. The
// cluster needs one client endpoint, which sends a marker to itself that
// the scheduler delivers only when nothing else is pending.
func drain(t *testing.T, c *testutil.Cluster, s *holdScheduler) {
	t.Helper()
	c.Net.Endpoint(c.N()).Send(wire.Message{To: c.N(), Protocol: drainProtocol})
	select {
	case <-s.drained:
	case <-time.After(60 * time.Second):
		t.Fatal("the network never drained")
	}
}

// launch starts one instance per input. Each decision arrives on decided
// with the round the party was in; each halt on halted.
func launch(t *testing.T, c *testutil.Cluster, tag string, inputs map[int]bool) (decided chan decision, halted chan int) {
	t.Helper()
	// Room for a second decision per party, so one is reported, not blocked on.
	decided = make(chan decision, 2*len(inputs))
	halted = make(chan int, len(inputs))
	insts := make(map[int]*aba.ABA, len(inputs))
	for i := range inputs {
		i := i
		c.Routers[i].DoSync(func() {
			var inst *aba.ABA
			inst = aba.New(aba.Config{
				Router: c.Routers[i], Struct: c.Struct, Instance: tag,
				Coin: c.Pub.Coin, CoinKey: c.Secrets[i].Coin,
				// Decide runs on the dispatch goroutine: Round() is safe.
				Decide:      func(v bool) { decided <- decision{party: i, value: v, round: inst.Round()} },
				OnTerminate: func() { halted <- i },
			})
			insts[i] = inst
		})
	}
	for i, v := range inputs {
		if err := insts[i].Start(v); err != nil {
			t.Fatal(err)
		}
	}
	return decided, halted
}

// await collects n decisions, got's included, and n halts, and checks
// agreement.
func await(t *testing.T, decided chan decision, halted chan int, n int, got map[int]decision) map[int]decision {
	t.Helper()
	stopped := 0
	deadline := time.After(60 * time.Second)
	for len(got) < n || stopped < n {
		select {
		case d := <-decided:
			if _, dup := got[d.party]; dup {
				t.Fatalf("party %d decided twice", d.party)
			}
			got[d.party] = d
		case <-halted:
			stopped++
		case <-deadline:
			t.Fatalf("timeout: %d of %d decisions, %d halts", len(got), n, stopped)
		}
	}
	for p, o := range got {
		for q, o2 := range got {
			if o.value != o2.value {
				t.Fatalf("agreement violated: party %d decided %v, party %d %v", p, o.value, q, o2.value)
			}
		}
	}
	return got
}

func allInputs(n int, v bool) map[int]bool {
	inputs := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		inputs[i] = v
	}
	return inputs
}

// TestUnanimousOneCostsOneRound: round 1's coin is fixed to 1, so a
// unanimous-1 agreement decides in round 1 without a coin, and a decided
// party opens no later round: START, BVAL, AUX and DECIDED, nothing else.
// A party's traffic waits for its own START: one that adopted DECIDED
// before its input was applied would report deciding in round 0.
func TestUnanimousOneCostsOneRound(t *testing.T) {
	for _, n := range []int{4, 7} {
		s := newHoldScheduler(int64(n))
		delivered := map[string]int{}
		started := map[int]bool{}
		s.hold = func(m *wire.Message) bool { return m.Type != "START" && !started[m.To] }
		s.deliver = func(m *wire.Message) {
			if m.Protocol == aba.Protocol {
				delivered[m.Type]++
				started[m.To] = started[m.To] || m.Type == "START"
			}
		}
		c := testutil.NewCluster(t, adversary.MustThreshold(n, (n-1)/3), testutil.Options{Scheduler: s, Clients: 1})
		decided, halted := launch(t, c, "ones", allInputs(n, true))
		for p, o := range await(t, decided, halted, n, map[int]decision{}) {
			if !o.value || o.round != 1 {
				t.Errorf("n=%d: party %d decided %v in round %d, want true in round 1", n, p, o.value, o.round)
			}
		}
		drain(t, c, s)
		s.mu.Lock()
		total := 0
		for _, k := range delivered {
			total += k
		}
		if delivered["COIN"] != 0 || total != 3*n*n+n {
			t.Errorf("n=%d: %d aba messages %v, want 3n²+n = %d and no COIN", n, total, delivered, 3*n*n+n)
		}
		s.mu.Unlock()
		c.Stop()
	}
}

// TestUnanimousZeroTossesFromRoundTwo: the fixed first coin is 1, so
// unanimous 0 cannot decide in round 1, and the first coin tossed is
// round 2's. A party sees DECIDED only once it has left round 1, so its
// decision round is its own and not an adopter's head start.
func TestUnanimousZeroTossesFromRoundTwo(t *testing.T) {
	s := newHoldScheduler(5)
	left := map[int]bool{}
	firstCoin := 0
	s.see = func(m *wire.Message) {
		if m.Type == "BVAL" && roundOf(m) >= 2 {
			left[m.From] = true
		}
	}
	s.hold = func(m *wire.Message) bool { return m.Type == "DECIDED" && !left[m.To] }
	s.deliver = func(m *wire.Message) {
		if m.Type == "COIN" && firstCoin == 0 {
			firstCoin = roundOf(m)
		}
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: s})
	decided, halted := launch(t, c, "zeros", allInputs(4, false))
	for p, o := range await(t, decided, halted, 4, map[int]decision{}) {
		if o.value || o.round < 2 {
			t.Errorf("party %d decided %v in round %d, want false in a round ≥ 2", p, o.value, o.round)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if firstCoin != 2 {
		t.Errorf("first COIN delivered is for round %d, want 2", firstCoin)
	}
}

// TestDecidedPartyStaysQuiet: a corrupted party alone names rounds 2…200
// to a decided party, both values each, before the DECIDED quorum frees
// it. One sender contains no honest party, so the decided party opens
// none of those rounds and sends nothing for any of them.
func TestDecidedPartyStaysQuiet(t *testing.T) {
	const victim, last = 1, 200
	s := newHoldScheduler(11)
	flooded := 0
	replies := map[string]bool{}
	s.see = func(m *wire.Message) {
		if m.From == victim && roundOf(m) >= 2 {
			replies[m.Type] = true
		}
	}
	s.hold = func(m *wire.Message) bool {
		return m.Type == "DECIDED" && m.To == victim && flooded < 2*(last-1)
	}
	s.deliver = func(m *wire.Message) {
		if m.From == 0 && m.To == victim && m.Type == "BVAL" {
			flooded++
		}
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: s, Clients: 1, Corrupted: []int{0}})
	const tag = "quiet"
	decided, halted := launch(t, c, tag, map[int]bool{1: true, 2: true, 3: true})
	got := map[int]decision{}
	for got[victim].round == 0 {
		select {
		case d := <-decided:
			got[d.party] = d
		case <-time.After(60 * time.Second):
			t.Fatal("party 1 never decided")
		}
	}
	ep := c.Net.Endpoint(0)
	for r := 2; r <= last; r++ {
		for _, v := range []bool{false, true} {
			ep.Send(wire.Message{To: victim, Protocol: aba.Protocol, Instance: tag, Type: "BVAL",
				Payload: wire.MustMarshalBody(roundBody{Round: r, Value: v})})
		}
	}
	await(t, decided, halted, 3, got)
	drain(t, c, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if got[victim] != (decision{party: victim, value: true, round: 1}) {
		t.Errorf("party 1 decided %+v, want true in round 1", got[victim])
	}
	if flooded != 2*(last-1) {
		t.Fatalf("%d flood messages delivered, want %d", flooded, 2*(last-1))
	}
	if len(replies) != 0 {
		t.Errorf("the decided party sent %v for rounds ≥ 2, want nothing", replies)
	}
}

// TestLaggardsReopenRound: a hold rule lets party 0 decide 1 in round 1
// (it sees three AUX(1) and not the AUX(0)) while the others see both
// values and enter round 2 with the coin's 1. Party 0 then sends nothing
// for round 2 until t+1 of its BVALs have reached it, and all four agree.
func TestLaggardsReopenRound(t *testing.T) {
	const d = 0
	s := newHoldScheduler(13)
	auxSent := map[int]bool{}
	zeroBvals := map[int]adversary.Set{} // round-1 BVAL(0) senders delivered, by receiver
	zeroAux := map[int]bool{}            // an AUX(0) delivered, by receiver
	var dDecided bool
	var round2 adversary.Set // round-2 BVAL senders delivered to party 0
	before := -1             // |round2| when party 0's first round-2 message showed up
	s.see = func(m *wire.Message) {
		switch {
		case m.Type == "AUX" && roundOf(m) == 1:
			auxSent[m.From] = true
		case m.Type == "DECIDED" && m.From == d:
			dDecided = true
		case m.From == d && roundOf(m) >= 2 && before < 0:
			before = round2.Count()
		}
	}
	s.hold = func(m *wire.Message) bool {
		r := roundOf(m)
		switch {
		case m.Type == "BVAL" && r == 1:
			// Parties 0–2 admit 1 to bin_values first, party 3 admits 0.
			return valueOf(m) == (m.To == 3) && !auxSent[m.To]
		case m.Type == "AUX" && r == 1 && m.To == d:
			return !valueOf(m) && !dDecided
		case m.Type == "AUX" && r == 1:
			// The others count the AUX(0), with 0 in bin_values, first.
			return valueOf(m) && !(zeroAux[m.To] && zeroBvals[m.To].Count() >= 3)
		case m.To == d && r >= 2:
			return !dDecided
		case m.To == d && m.Type == "DECIDED":
			return before < 0
		}
		return false
	}
	s.deliver = func(m *wire.Message) {
		r := roundOf(m)
		switch {
		case m.Type == "BVAL" && r == 1 && !valueOf(m):
			zeroBvals[m.To] = zeroBvals[m.To].Add(m.From)
		case m.Type == "AUX" && r == 1 && !valueOf(m):
			zeroAux[m.To] = true
		case m.Type == "BVAL" && r == 2 && m.To == d:
			round2 = round2.Add(m.From)
		}
	}
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: s, Clients: 1})
	decided, halted := launch(t, c, "laggards", map[int]bool{0: true, 1: true, 2: false, 3: false})
	got := await(t, decided, halted, 4, map[int]decision{})
	drain(t, c, s)
	s.mu.Lock()
	defer s.mu.Unlock()
	for p, o := range got {
		if want := p != d; !o.value || (o.round >= 2) != want {
			t.Errorf("party %d decided %v in round %d", p, o.value, o.round)
		}
	}
	if before < 2 {
		t.Errorf("party 0's first round-2 message followed %d round-2 BVAL senders, want ≥ t+1 = 2", before)
	}
}

// TestDoubleVoterManySeeds runs TestByzantineDoubleVoter's corrupted
// party against split inputs under 500 random schedules: the honest
// parties agree and halt in every one. Unlike the tests above it passes
// without the lazy-round rule too; it guards that the rule never strands
// a laggard.
func TestDoubleVoterManySeeds(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	st := adversary.MustThreshold(4, 1)
	for seed := 1; seed <= seeds; seed++ {
		c := testutil.NewCluster(t, st, testutil.Options{Scheduler: netsim.NewRandomScheduler(int64(seed)), Corrupted: []int{0}})
		const tag = "byz"
		doubleVote(c, tag)
		decided, halted := launch(t, c, tag, map[int]bool{1: seed%2 == 0, 2: seed%2 == 1, 3: seed%3 == 0})
		await(t, decided, halted, 3, map[int]decision{})
		c.Stop()
	}
}

// doubleVote makes party 0 BVAL both values and AUX 1 in round 1 and
// claim DECIDED(1), to every other party.
func doubleVote(c *testutil.Cluster, tag string) {
	ep := c.Net.Endpoint(0)
	for _, m := range []struct {
		typ  string
		body any
	}{
		{"BVAL", roundBody{Round: 1, Value: true}},
		{"BVAL", roundBody{Round: 1, Value: false}},
		{"AUX", roundBody{Round: 1, Value: true}},
		{"DECIDED", struct{ Value bool }{true}},
	} {
		for to := 1; to < c.N(); to++ {
			ep.Send(wire.Message{To: to, Protocol: aba.Protocol, Instance: tag, Type: m.typ, Payload: wire.MustMarshalBody(m.body)})
		}
	}
}
