package sintra_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sintra"
	"sintra/internal/service"
)

func TestSimulatedDeploymentQuickstart(t *testing.T) {
	st, err := sintra.NewThresholdStructure(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := sintra.NewDeployment(st,
		func() sintra.StateMachine { return sintra.NewDirectory() },
		sintra.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	client, err := dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(service.DirectoryRequest{Op: service.OpIssue, Name: "alice", PubKey: []byte{1}})
	ans, err := invokeWithin(client, req, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var resp service.DirectoryResponse
	if err := json.Unmarshal(ans.Result, &resp); err != nil || !resp.OK {
		t.Fatalf("bad response %s: %v", ans.Result, err)
	}
	if dep.Metrics().Counter("net.delivered") == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestSimulatedDeploymentWithCrashes(t *testing.T) {
	st := sintra.Example1Structure()
	dep, err := sintra.NewDeployment(st,
		func() sintra.StateMachine { return sintra.NewNotary() },
		sintra.WithCrashed(0, 1, 2, 3), // the whole class a
		sintra.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	client, err := dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(service.NotaryRequest{Op: service.OpRegister, Document: []byte("doc")})
	ans, err := invokeWithin(client, req, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var resp service.NotaryResponse
	if err := json.Unmarshal(ans.Result, &resp); err != nil || !resp.OK || resp.Seq != 1 {
		t.Fatalf("bad response %s: %v", ans.Result, err)
	}
}

func TestNewDeploymentValidation(t *testing.T) {
	newNotary := func() sintra.StateMachine { return sintra.NewNotary() }
	if _, err := sintra.NewDeployment(nil, newNotary); err == nil {
		t.Fatal("missing structure accepted")
	}
	st, _ := sintra.NewThresholdStructure(4, 1)
	if _, err := sintra.NewDeployment(st, nil); err == nil {
		t.Fatal("missing service factory accepted")
	}
	dep, err := sintra.NewDeployment(st, newNotary, sintra.WithMaxClients(1))
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	if _, err := dep.NewClient(); err != nil {
		t.Fatal(err)
	}
	if _, err := dep.NewClient(); err == nil {
		t.Fatal("client limit not enforced")
	}
}

func TestDealSaveLoadRoundTrip(t *testing.T) {
	st, _ := sintra.NewThresholdStructure(4, 1)
	pub, secrets, err := sintra.Deal(sintra.DealOptions{
		Structure: st,
		GroupName: "test256",
		RSAPrimes: sintra.TestRSAPrimes,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "deploy")
	if err := sintra.SaveDeployment(dir, pub, secrets); err != nil {
		t.Fatal(err)
	}
	pub2, err := sintra.LoadPublic(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pub2.Structure.N() != 4 {
		t.Fatal("bad structure after load")
	}
	sec2, err := sintra.LoadPartySecret(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sec2.Party != 2 {
		t.Fatal("wrong party file")
	}
	if _, err := sintra.LoadPartySecret(dir, 9); err == nil {
		t.Fatal("missing party file accepted")
	}
	// Secret files must not be world readable.
	info, err := os.Stat(filepath.Join(dir, "party-0.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm()&0o077 != 0 {
		t.Fatalf("party file mode %v too permissive", info.Mode())
	}
}

func TestStructureHelpers(t *testing.T) {
	if sintra.Example2Structure().N() != 16 {
		t.Fatal("Example2 size")
	}
	f := sintra.And(sintra.Leaf(0), sintra.Or(sintra.Leaf(1), sintra.Leaf(2)))
	if !f.Eval(sintra.SetOf(0, 2)) || f.Eval(sintra.SetOf(1, 2)) {
		t.Fatal("formula helpers broken")
	}
	st, err := sintra.NewGeneralStructure(4,
		[]sintra.PartySet{sintra.SetOf(0), sintra.SetOf(1), sintra.SetOf(2), sintra.SetOf(3)},
		sintra.ThresholdOf(2, []int{0, 1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Q3() {
		t.Fatal("1-of-4 singleton structure should satisfy Q3")
	}
}

func TestDeploymentObservability(t *testing.T) {
	// The end-to-end observability path through the public API: functional
	// options, a shared tracer, the metrics snapshot, and the context-first
	// client entry point.
	st, err := sintra.NewThresholdStructure(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := sintra.NewCollectTracer()
	dep, err := sintra.NewDeployment(st,
		func() sintra.StateMachine { return sintra.NewDirectory() },
		sintra.WithSeed(4),
		sintra.WithTracer(col),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()
	client, err := dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, _ := json.Marshal(service.DirectoryRequest{Op: service.OpPut, Key: "k", Value: "v"})
	if _, err := client.InvokeContext(ctx, req); err != nil {
		t.Fatal(err)
	}

	snap := dep.Metrics()
	// Every layer of the stack must have reported: network traffic, router
	// dispatch, broadcast instances, agreement decisions, ordered
	// deliveries, state-machine executions, and the client's own view.
	for _, counter := range []string{
		"net.delivered", "router.dispatched",
		"cbc.instances", "mvba.instances", "aba.decide", "abc.deliver",
		"node.applied", "client.requests", "client.answers",
	} {
		if snap.Counter(counter) == 0 {
			t.Errorf("counter %q never incremented", counter)
		}
	}
	for _, hist := range []string{
		"router.dispatch.latency", "abc.latency.order",
		"node.apply.latency", "client.invoke.latency",
	} {
		if snap.Histograms[hist].Count == 0 {
			t.Errorf("histogram %q never observed", hist)
		}
	}
	if len(snap.CountersWithPrefix("net.msgs.")) == 0 {
		t.Error("no per-protocol traffic counters")
	}

	// The per-protocol traffic counters add up to the network total, and
	// bytes were counted alongside.
	var total, bytes int64
	for _, v := range snap.CountersWithPrefix("net.msgs.") {
		total += v
	}
	for _, v := range snap.CountersWithPrefix("net.bytes.") {
		bytes += v
	}
	if total == 0 || bytes == 0 || total != snap.Counter("net.delivered") {
		t.Fatalf("per-protocol traffic: %d messages, %d bytes; net.delivered %d",
			total, bytes, snap.Counter("net.delivered"))
	}

	// The tracer saw lifecycle events from the protocol stack.
	var starts, delivers int
	for _, ev := range col.Events() {
		switch ev.Stage {
		case sintra.StageStart:
			starts++
		case sintra.StageDeliver:
			delivers++
		}
	}
	if starts == 0 || delivers == 0 {
		t.Fatalf("tracer saw %d starts, %d delivers; want both > 0", starts, delivers)
	}

	if dep.Observer() == nil {
		t.Fatal("deployment must expose its registry")
	}
}
