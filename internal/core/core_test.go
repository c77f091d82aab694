package core_test

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/core"
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

	// The liar listens on endpoint 3 and answers any REQUEST at once.
	liar := c.Net.Endpoint(3)
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
				ReqID   [16]byte
				Payload []byte
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
			}{ReqID: req.ReqID, Result: []byte("LIES")}
			resp.Share.Party = 3
			resp.Share.Data = []byte("garbage")
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
	if bytes.Contains(ans.Result, []byte("LIES")) {
		t.Fatal("client accepted the liar's answer")
	}
}

// tamperShares is a replica's endpoint that replaces the share of every
// RESPONSE it sends with the replica's share on another statement:
// well-formed, with a consistent proof, and wrong for the answer.
type tamperShares struct {
	wire.Transport
	scheme thresig.Scheme
	key    *thresig.SecretKey
}

func (t *tamperShares) Send(m wire.Message) {
	var resp struct {
		ReqID  [16]byte
		Seq    int64
		Result []byte
		Share  thresig.Share
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

func TestRequestFloodBounded(t *testing.T) {
	// A single replica (no quorum, so nothing ever delivers or answers)
	// is flooded with distinct undeliverable requests. Before the
	// bounded-memory work, every request grew reqClients forever; now the
	// bookkeeping must cap at the hard pending-request bound, evicting
	// oldest entries.
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 21})
	nodes := nodesFor(t, c, []int{0}, core.ModeAtomic, func() core.StateMachine { return &echoService{} })
	node := nodes[0]

	const flood = 6000
	ep := c.Net.Endpoint(4)
	for i := 0; i < flood; i++ {
		var reqID [16]byte
		binary.BigEndian.PutUint64(reqID[:8], uint64(i)+1)
		ep.Send(wire.Message{
			To: 0, Protocol: "client", Instance: "test", Type: "REQUEST",
			Payload: wire.MustMarshalBody(struct {
				ReqID   [16]byte
				Payload []byte
			}{ReqID: reqID, Payload: []byte("flood")}),
		})
	}

	// Wait until the node has chewed through the flood (pending plateaus),
	// then assert the cap held.
	var pending, last int
	deadline := time.Now().Add(30 * time.Second)
	for {
		pending = node.PendingRequests()
		if pending == last && pending > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood never settled: %d pending", pending)
		}
		last = pending
		time.Sleep(100 * time.Millisecond)
	}
	if pending > 4096 {
		t.Fatalf("pending requests = %d, hard bound is 4096", pending)
	}
	if pending < 1000 {
		t.Fatalf("pending requests = %d: the flood never reached the node", pending)
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
