package core_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/core"
	"sintra/internal/merkle"
	"sintra/internal/netsim"
	"sintra/internal/obs"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// echoService is a deterministic state machine that prefixes each request
// with its sequence number.
type echoService struct {
	mu      sync.Mutex
	applied []string
}

func (e *echoService) Apply(seq int64, request []byte) []byte {
	e.mu.Lock()
	e.applied = append(e.applied, string(request))
	e.mu.Unlock()
	return []byte(fmt.Sprintf("%d:%s", seq, request))
}

// counterService returns a running counter, exercising state dependence.
type counterService struct {
	count int64
}

func (c *counterService) Apply(seq int64, request []byte) []byte {
	c.count += int64(len(request))
	return []byte(fmt.Sprintf("count=%d", c.count))
}

// nodesFor builds and runs a node on each listed party over the cluster's
// simulated network.
func nodesFor(t *testing.T, c *testutil.Cluster, parties []int, mode core.Mode, svc func() core.StateMachine) map[int]*core.Node {
	t.Helper()
	nodes := make(map[int]*core.Node, len(parties))
	for _, i := range parties {
		n, err := core.NewNode(core.NodeConfig{
			Public:      c.Pub,
			Secret:      c.Secrets[i],
			Transport:   c.Net.Endpoint(i),
			ServiceName: "test",
			Service:     svc(),
			Mode:        mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go n.Run()
	}
	t.Cleanup(func() {
		// Stop the simulated network first: Node.Stop waits for its
		// dispatch loop, which only exits once its endpoint's Recv fails.
		c.Net.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	})
	return nodes
}

// Cluster routers collide with Node routers on the same endpoints, so core
// tests build clusters with no routers started (all parties "corrupted"
// from testutil's perspective) and attach Nodes instead.
func coreCluster(t *testing.T, st *adversary.Structure, opts testutil.Options) *testutil.Cluster {
	t.Helper()
	all := make([]int, st.N())
	for i := range all {
		all[i] = i
	}
	opts.Corrupted = all
	if opts.Clients == 0 {
		opts.Clients = 2
	}
	return testutil.NewCluster(t, st, opts)
}

// invokeWithin executes one request with a plain timeout.
func invokeWithin(c *core.Client, body []byte, timeout time.Duration) (core.Answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.InvokeContext(ctx, body)
}

func TestClientInvokeAtomic(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 2})
	nodesFor(t, c, []int{0, 1, 2, 3}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()

	ans, err := invokeWithin(client, []byte("hello"), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(ans.Result), ":hello") {
		t.Fatalf("Result = %q", ans.Result)
	}
	if len(ans.Signature) == 0 {
		t.Fatal("answer carries no threshold signature")
	}
}

func TestSequentialStateEvolution(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 3})
	nodesFor(t, c, []int{0, 1, 2, 3}, core.ModeAtomic, func() core.StateMachine { return &counterService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()

	// Because requests mutate shared state, every client answer must
	// reflect the same replica history: counts strictly increase.
	last := int64(-1)
	for k := 0; k < 3; k++ {
		ans, err := invokeWithin(client, []byte("xx"), 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var count int64
		if _, err := fmt.Sscanf(string(ans.Result), "count=%d", &count); err != nil {
			t.Fatalf("Result %q: %v", ans.Result, err)
		}
		if count <= last {
			t.Fatalf("count did not advance: %d after %d", count, last)
		}
		last = count
	}
}

func TestClientSurvivesCrashedServer(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 5})
	nodesFor(t, c, []int{0, 1, 2}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	ans, err := invokeWithin(client, []byte("crash-tolerant"), 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ans.Result), "crash-tolerant") {
		t.Fatalf("Result = %q", ans.Result)
	}
}

func TestSecureCausalMode(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 7})
	nodesFor(t, c, []int{0, 1, 2, 3}, core.ModeSecureCausal, func() core.StateMachine { return &echoService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeSecureCausal)
	defer client.Close()
	ans, err := invokeWithin(client, []byte("confidential"), 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ans.Result), "confidential") {
		t.Fatalf("Result = %q", ans.Result)
	}
}

func TestTwoClientsConcurrently(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 9, Clients: 2})
	nodesFor(t, c, []int{0, 1, 2, 3}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	c1 := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer c1.Close()
	c2 := core.NewClient(c.Pub, c.Net.Endpoint(5), "test", core.ModeAtomic)
	defer c2.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	results := make([]core.Answer, 2)
	for i, cl := range []*core.Client{c1, c2} {
		i, cl := i, cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = invokeWithin(cl, []byte(fmt.Sprintf("client-%d", i)), 90*time.Second)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		if !strings.Contains(string(results[i].Result), fmt.Sprintf("client-%d", i)) {
			t.Fatalf("client %d got %q", i, results[i].Result)
		}
	}
}

func TestGeneralStructureService(t *testing.T) {
	// Example 1 with all of class a crashed: the trusted service keeps
	// answering although four of nine servers are gone.
	st := adversary.Example1()
	c := coreCluster(t, st, testutil.Options{Seed: 11})
	nodesFor(t, c, []int{4, 5, 6, 7, 8}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(9), "test", core.ModeAtomic)
	defer client.Close()
	ans, err := invokeWithin(client, []byte("class-a-is-down"), 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ans.Result), "class-a-is-down") {
		t.Fatalf("Result = %q", ans.Result)
	}
}

func TestByzantineResponderCannotFoolClient(t *testing.T) {
	// Server 3 is replaced by a liar that answers garbage immediately with
	// an invalid share; the client must still converge on the honest
	// answer.
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 13})
	nodesFor(t, c, []int{0, 1, 2}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })

	// The liar listens on endpoint 3 and answers any REQUEST at once. It
	// counts its answers, so a change of the REQUEST body that stops it
	// from decoding one fails the test instead of silencing the liar.
	liar := c.Net.Endpoint(3)
	var lies atomic.Int64
	go func() {
		for {
			m, ok := liar.Recv()
			if !ok {
				return
			}
			if m.Protocol != "client" || m.Type != "REQUEST" {
				continue
			}
			var req struct {
				ReqID  [16]byte
				Client int
				Body   []byte
			}
			if wire.UnmarshalBody(m.Payload, &req) != nil {
				continue
			}
			resp := struct {
				ReqID  [16]byte
				Seq    int64
				Result []byte
				Share  struct {
					Party int
					Data  []byte
				}
				Index, Count int
				Branch       [][32]byte
			}{ReqID: req.ReqID, Result: []byte("LIES"), Count: 1}
			resp.Share.Party = 3
			resp.Share.Data = []byte("garbage")
			lies.Add(1)
			liar.Send(wire.Message{
				To: m.From, Protocol: "client", Instance: "test",
				Type: "RESPONSE", Payload: wire.MustMarshalBody(resp),
			})
		}
	}()

	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	ans, err := invokeWithin(client, []byte("truth"), 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if lies.Load() == 0 {
		t.Fatal("the liar never answered the REQUEST")
	}
	if bytes.Contains(ans.Result, []byte("LIES")) {
		t.Fatal("client accepted the liar's answer")
	}
}

// tamperShares is a replica's endpoint that replaces the share of every
// RESPONSE it sends with the replica's share on another statement:
// well-formed, with a consistent proof, and wrong for the answer. The
// branch is left alone, so the response claims the honest replicas' root.
type tamperShares struct {
	wire.Transport
	scheme thresig.Scheme
	key    *thresig.SecretKey
}

func (t *tamperShares) Send(m wire.Message) {
	var resp struct {
		ReqID        [16]byte
		Seq          int64
		Result       []byte
		Share        thresig.Share
		Index, Count int
		Branch       [][32]byte
	}
	if m.Type == "RESPONSE" && wire.UnmarshalBody(m.Payload, &resp) == nil {
		if sh, err := t.scheme.SignShare(t.key, []byte("another statement"), rand.Reader); err == nil {
			resp.Share = sh
			m.Payload = wire.MustMarshalBody(resp)
		}
	}
	t.Transport.Send(m)
}

// holdResponses delivers a random pending message, holding the honest
// replicas' RESPONSEs until the tampered one has reached the client.
type holdResponses struct {
	rng      *mrand.Rand
	liar     int
	liarSeen bool
}

func (s *holdResponses) Next(pending []wire.Message) int {
	var free []int
	for i, m := range pending {
		if s.liarSeen || m.Type != "RESPONSE" || m.From == s.liar {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	i := free[s.rng.Intn(len(free))]
	s.liarSeen = s.liarSeen || pending[i].Type == "RESPONSE" && pending[i].From == s.liar
	return i
}

// TestByzantineAnswerShare: the client combines answer shares without
// checking their proofs. Replica 3 answers the right result with a wrong
// share, which reaches the client first, so the first combine includes
// it and fails: the client names the culprit, drops it and answers from
// honest shares with a signature VerifyAnswer accepts.
func TestByzantineAnswerShare(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Scheduler: &holdResponses{rng: mrand.New(mrand.NewSource(31)), liar: 3}})
	liar, err := core.NewNode(core.NodeConfig{
		Public: c.Pub, Secret: c.Secrets[3], ServiceName: "test",
		Transport: &tamperShares{Transport: c.Net.Endpoint(3), scheme: c.Pub.AnswerSig(), key: c.Secrets[3].SigAnswer},
		Service:   &echoService{}, Mode: core.ModeAtomic,
	})
	if err != nil {
		t.Fatal(err)
	}
	go liar.Run()
	t.Cleanup(func() { c.Net.Stop(); liar.Stop() }) // runs after nodesFor's
	nodesFor(t, c, []int{0, 1, 2}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })

	reg := obs.NewRegistry()
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic, core.WithObserver(reg))
	defer client.Close()
	ans, err := invokeWithin(client, []byte("answered from honest shares"), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature); err != nil {
		t.Fatalf("answer does not verify: %v", err)
	}
	if n := reg.Snapshot().Counter("client.responses.badshare"); n != 1 {
		t.Fatalf("client.responses.badshare = %d, want 1", n)
	}
}

// misroute is a replica's endpoint that sends every RESPONSE with the
// right result but a wrong claim about its root: with branch set, an extra
// hash, so the branch does not fold; otherwise a valid share on another
// root, a two-leaf tree no honest replica built.
type misroute struct {
	wire.Transport
	scheme thresig.Scheme
	key    *thresig.SecretKey
	branch bool
}

func (t *misroute) Send(m wire.Message) {
	var resp struct {
		ReqID        [16]byte
		Seq          int64
		Result       []byte
		Share        thresig.Share
		Index, Count int
		Branch       [][32]byte
	}
	if m.Type == "RESPONSE" && wire.UnmarshalBody(m.Payload, &resp) == nil {
		if t.branch {
			resp.Branch = append(resp.Branch, [32]byte{0xde, 0xad})
		} else {
			tree := merkle.NewTree([][]byte{core.AnswerStatement("test", resp.ReqID, resp.Result), []byte("no such answer")})
			resp.Index, resp.Count, resp.Branch = 0, 2, tree.Branch(0)
			if sh, err := t.scheme.SignShare(t.key, core.RootStatement("test", 2, tree.Root()), rand.Reader); err == nil {
				resp.Share = sh
			}
		}
		m.Payload = wire.MustMarshalBody(resp)
	}
	t.Transport.Send(m)
}

// TestByzantineAnswerRoot: replica 3 answers the right result but claims
// another root, and its RESPONSE reaches the client first. A branch that
// does not fold is dropped and counted as malformed; a valid share on
// another root forms a group of its own and never enters the honest
// combine. Either way the client answers from honest shares.
func TestByzantineAnswerRoot(t *testing.T) {
	for _, branch := range []bool{true, false} {
		t.Run(fmt.Sprintf("branch=%v", branch), func(t *testing.T) {
			st := adversary.MustThreshold(4, 1)
			c := coreCluster(t, st, testutil.Options{Scheduler: &holdResponses{rng: mrand.New(mrand.NewSource(41)), liar: 3}})
			liar, err := core.NewNode(core.NodeConfig{
				Public: c.Pub, Secret: c.Secrets[3], ServiceName: "test",
				Transport: &misroute{Transport: c.Net.Endpoint(3), scheme: c.Pub.AnswerSig(), key: c.Secrets[3].SigAnswer, branch: branch},
				Service:   &echoService{}, Mode: core.ModeAtomic,
			})
			if err != nil {
				t.Fatal(err)
			}
			go liar.Run()
			t.Cleanup(func() { c.Net.Stop(); liar.Stop() })
			nodesFor(t, c, []int{0, 1, 2}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })

			reg := obs.NewRegistry()
			client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic, core.WithObserver(reg))
			defer client.Close()
			ans, err := invokeWithin(client, []byte("answered from honest shares"), 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature); err != nil {
				t.Fatalf("answer does not verify: %v", err)
			}
			snap := reg.Snapshot()
			if n, want := snap.Counter("client.malformed"), map[bool]int64{true: 1, false: 0}[branch]; n != want {
				t.Fatalf("client.malformed = %d, want %d", n, want)
			}
			if n := snap.Counter("client.responses.badshare"); n != 0 {
				t.Fatalf("client.responses.badshare = %d: the liar's share entered an honest combine", n)
			}
		})
	}
}

// TestOneAnswerSignaturePerRound: under eight concurrent clients rounds
// order several requests each. Every answer's signature names its Round,
// the sequence numbers [First, End) of the answers under the signed root;
// these Rounds tile the total order, and every replica signs at most once
// per Round, strictly fewer times than it answers.
func TestOneAnswerSignaturePerRound(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	const clients, each = 8, 3
	c := coreCluster(t, st, testutil.Options{Seed: 43, Clients: clients})
	regs := make([]*obs.Registry, 4)
	nodes := make([]*core.Node, 4)
	for i := range nodes {
		regs[i] = obs.NewRegistry()
		n, err := core.NewNode(core.NodeConfig{
			Public: c.Pub, Secret: c.Secrets[i], Transport: c.Net.Endpoint(i),
			ServiceName: "test", Service: &echoService{}, Mode: core.ModeAtomic, Observer: regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go n.Run()
	}
	t.Cleanup(func() {
		c.Net.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	})

	var wg sync.WaitGroup
	var mu sync.Mutex
	rounds := map[int64]abc.Round{} // by First
	errs := make(chan error, clients*each)
	for k := 0; k < clients; k++ {
		cl := core.NewClient(c.Pub, c.Net.Endpoint(4+k), "test", core.ModeAtomic)
		defer cl.Close()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				ans, err := invokeWithin(cl, []byte(fmt.Sprintf("client-%d-%d", k, j)), 90*time.Second)
				if err == nil {
					err = core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature)
				}
				if err != nil {
					errs <- err
					continue
				}
				r := core.AnswerRound(ans.Seq, ans.Signature)
				mu.Lock()
				if prev, ok := rounds[r.First]; ok && prev != r {
					errs <- fmt.Errorf("answers name rounds %v and %v", prev, r)
				}
				rounds[r.First] = r
				mu.Unlock()
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for seq := int64(0); seq < clients*each; {
		r, ok := rounds[seq]
		if !ok || r.End <= seq {
			t.Fatalf("no round starts at %d: %v", seq, rounds)
		}
		seq = r.End
	}
	for i, n := range nodes {
		var signed, applied int64
		n.Router().DoSync(func() {
			snap := regs[i].Snapshot()
			signed, applied = snap.Counter("node.answer.signed"), snap.Counter("node.applied")
		})
		t.Logf("replica %d: %d answers, %d signatures, %d rounds", i, applied, signed, len(rounds))
		if signed > int64(len(rounds)) || signed >= applied {
			t.Fatalf("replica %d signed %d times for %d answers in %d rounds", i, signed, applied, len(rounds))
		}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{})
	if _, err := core.NewNode(core.NodeConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := core.NewNode(core.NodeConfig{
		Public: c.Pub, Secret: c.Secrets[0], Transport: c.Net.Endpoint(0),
		Service: &echoService{}, Mode: core.ModeAtomic,
	}); err == nil {
		t.Fatal("missing service name accepted")
	}
	if _, err := core.NewNode(core.NodeConfig{
		Public: c.Pub, Secret: c.Secrets[0], Transport: c.Net.Endpoint(0),
		ServiceName: "x", Service: &echoService{}, Mode: core.Mode(9),
	}); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestModeString(t *testing.T) {
	if core.ModeAtomic.String() != "atomic" || core.ModeSecureCausal.String() != "secure-causal" {
		t.Fatal("mode names broken")
	}
	if core.Mode(9).String() == "" {
		t.Fatal("unknown mode must still render")
	}
}

var _ netsim.Scheduler = (*netsim.RandomScheduler)(nil) // compile-time reference

func TestClientTimeoutWhenServersDown(t *testing.T) {
	// No nodes run at all: the client must time out, not hang. The error
	// carries both the client-level cause and the context cause.
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 15})
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	_, err := invokeWithin(client, []byte("void"), 300*time.Millisecond)
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want it to wrap context.DeadlineExceeded", err)
	}
	if errors.Is(err, core.ErrClosed) || errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, must not match ErrClosed or Canceled", err)
	}
}

func TestClientInvokeContextCanceled(t *testing.T) {
	// Cancellation (not a deadline) must surface context.Canceled and must
	// NOT be reported as a timeout.
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 25})
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := client.InvokeContext(ctx, []byte("never answered"))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, cancellation must not look like a timeout", err)
	}
}

func TestClientClosed(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 16})
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	client.Close()
	if _, err := invokeWithin(client, []byte("x"), time.Second); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	client.Close() // idempotent
}

func TestClientClosedBeatsTimeout(t *testing.T) {
	// Regression: a client closed while a request is in flight must report
	// ErrClosed even when the context fires at the same moment. Close
	// always happens before the context here, so whichever ready select
	// case wakes invoke, the answer must be ErrClosed — without the nested
	// closed check the context branch would sometimes win and misreport.
	st := adversary.MustThreshold(4, 1)
	const rounds = 20
	c := coreCluster(t, st, testutil.Options{Seed: 26, Clients: rounds})
	for i := 0; i < rounds; i++ {
		client := core.NewClient(c.Pub, c.Net.Endpoint(4+i), "test", core.ModeAtomic)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := client.InvokeContext(ctx, []byte("racing"))
			errc <- err
		}()
		time.Sleep(time.Millisecond) // let the request register and block
		client.Close()
		cancel()
		err := <-errc
		if !errors.Is(err, core.ErrClosed) {
			t.Fatalf("iteration %d: err = %v, want ErrClosed to beat the context", i, err)
		}
	}
}

func TestVerifyAnswerRejectsForgery(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 17})
	nodesFor(t, c, []int{0, 1, 2, 3}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	ans, err := invokeWithin(client, []byte("real"), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature); err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), ans.Result...)
	forged[0] ^= 1
	if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, forged, ans.Signature); err == nil {
		t.Fatal("forged result verified")
	}
	if err := core.VerifyAnswer(c.Pub, "other-service", ans.ReqID, ans.Result, ans.Signature); err == nil {
		t.Fatal("signature transferred across services")
	}
	var otherID [16]byte
	otherID[5] = 9
	if err := core.VerifyAnswer(c.Pub, "test", otherID, ans.Result, ans.Signature); err == nil {
		t.Fatal("signature transferred across requests")
	}
}

// onlyTo is a client endpoint whose messages reach one server only.
type onlyTo struct {
	wire.Transport
	server int
}

func (t *onlyTo) Send(m wire.Message) {
	if m.To == t.server {
		t.Transport.Send(m)
	}
}

// TestRequestToOneReplicaAnswered: a request that reaches one replica
// only is ordered through that replica's proposal, and every replica that
// applies it answers the client its envelope names, so the client
// collects shares beyond the adversary structure and a signature that
// verifies — in both modes.
func TestRequestToOneReplicaAnswered(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeAtomic, core.ModeSecureCausal} {
		t.Run(mode.String(), func(t *testing.T) {
			st := adversary.MustThreshold(4, 1)
			c := coreCluster(t, st, testutil.Options{Seed: 47})
			nodesFor(t, c, []int{0, 1, 2, 3}, mode, func() core.StateMachine { return &echoService{} })
			client := core.NewClient(c.Pub, &onlyTo{Transport: c.Net.Endpoint(4), server: 2}, "test", mode)
			defer client.Close()
			for k := 0; k < 2; k++ {
				body := []byte(fmt.Sprintf("seen by one replica %d", k))
				ans, err := invokeWithin(client, body, 60*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.HasSuffix(ans.Result, body) {
					t.Fatalf("Result = %q", ans.Result)
				}
				if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature); err != nil {
					t.Fatalf("answer does not verify: %v", err)
				}
			}
		})
	}
}

// responseLog is a replica's endpoint that counts its RESPONSEs by
// destination.
type responseLog struct {
	wire.Transport
	mu *sync.Mutex
	to map[int]int
}

func (t *responseLog) Send(m wire.Message) {
	if m.Type == "RESPONSE" {
		t.mu.Lock()
		t.to[m.To]++
		t.mu.Unlock()
	}
	t.Transport.Send(m)
}

// TestEnvelopeNamingNoClientAnsweredToNobody: requests whose envelopes
// name a server, a negative index or an endpoint nobody holds are ordered
// and applied by every replica and reach nobody, without a panic in any
// handler, while a genuine client's requests around them complete.
func TestEnvelopeNamingNoClientAnsweredToNobody(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 53})
	reg := obs.NewRegistry()
	var mu sync.Mutex
	sent := make(map[int]int)
	services := make([]*echoService, 4)
	nodes := make([]*core.Node, 4)
	for i := range nodes {
		services[i] = &echoService{}
		n, err := core.NewNode(core.NodeConfig{
			Public: c.Pub, Secret: c.Secrets[i], ServiceName: "test",
			Transport: &responseLog{Transport: c.Net.Endpoint(i), mu: &mu, to: sent},
			Service:   services[i], Mode: core.ModeAtomic, Observer: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go n.Run()
	}
	t.Cleanup(func() {
		c.Net.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	})
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	if _, err := invokeWithin(client, []byte("before"), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	for k, to := range []int{1, -1, 1 << 30} {
		env := wire.MustMarshalBody(struct {
			ReqID  [16]byte
			Client int
			Body   []byte
		}{ReqID: [16]byte{byte(k + 1)}, Client: to, Body: []byte(fmt.Sprintf("names %d", to))})
		for s := 0; s < 4; s++ {
			c.Net.Endpoint(5).Send(wire.Message{To: s, Protocol: "client", Instance: "test", Type: "REQUEST", Payload: env})
		}
	}
	if _, err := invokeWithin(client, []byte("after"), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for i, svc := range services {
		for {
			svc.mu.Lock()
			applied := len(svc.applied)
			svc.mu.Unlock()
			if applied == 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d applied %d requests, want 5", i, applied)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for _, n := range nodes {
		n.Router().DoSync(func() {}) // every answer of the applied rounds is sent
	}
	mu.Lock()
	defer mu.Unlock()
	// The unheld endpoint's answers leave the replica and are dropped by
	// the network; no server and no negative index is ever answered.
	for to, count := range sent {
		if to != 4 && to != 1<<30 {
			t.Errorf("%d RESPONSEs sent to endpoint %d", count, to)
		}
	}
	if n := reg.Snapshot().Counter("router.panics"); n != 0 {
		t.Fatalf("router.panics = %d", n)
	}
}

func TestLargerClusterService(t *testing.T) {
	// Full service stack at n=7, t=2, with two crashed replicas.
	if testing.Short() {
		t.Skip("larger cluster")
	}
	st := adversary.MustThreshold(7, 2)
	c := coreCluster(t, st, testutil.Options{Seed: 19})
	nodesFor(t, c, []int{0, 1, 2, 3, 4}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	client := core.NewClient(c.Pub, c.Net.Endpoint(7), "test", core.ModeAtomic)
	defer client.Close()
	for k := 0; k < 2; k++ {
		ans, err := invokeWithin(client, []byte(fmt.Sprintf("big-%d", k)), 120*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(ans.Result), fmt.Sprintf("big-%d", k)) {
			t.Fatalf("Result = %q", ans.Result)
		}
	}
}

// TestOnlyTheClientProtocolAdmitsClients: a client endpoint reaches a
// replica through the client protocol — its request is ordered and
// answered — and through nothing else: what it sends to a server protocol
// is dropped at the router, whatever sender set that protocol counts.
func TestOnlyTheClientProtocolAdmitsClients(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 31})
	reg := obs.NewRegistry()
	nodes := make(map[int]*core.Node)
	for i := 0; i < 4; i++ {
		cfg := core.NodeConfig{
			Public: c.Pub, Secret: c.Secrets[i], Transport: c.Net.Endpoint(i),
			ServiceName: "test", Service: &echoService{}, Mode: core.ModeAtomic,
		}
		if i == 0 {
			cfg.Observer = reg
		}
		n, err := core.NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go n.Run()
	}
	t.Cleanup(func() {
		c.Net.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	})
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()
	if _, err := invokeWithin(client, []byte("from a client"), 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("router.dropped.nonserver"); n != 0 {
		t.Fatalf("%d client-protocol messages were dropped as non-server traffic", n)
	}
	for _, protocol := range []string{"abc", "mvba", "aba", "cbc", "rbc", "checkpoint"} {
		c.Net.Endpoint(5).Send(wire.Message{To: 0, Protocol: protocol, Instance: "svc/test", Type: "FETCH"})
	}
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counter("router.dropped.nonserver") < 6 {
		if time.Now().After(deadline) {
			t.Fatalf("router.dropped.nonserver = %d, want 6", reg.Snapshot().Counter("router.dropped.nonserver"))
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := invokeWithin(client, []byte("and again"), 60*time.Second); err != nil {
		t.Fatal(err)
	}
}
