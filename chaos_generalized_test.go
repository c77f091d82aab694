package sintra_test

import (
	"fmt"
	"testing"
	"time"

	"sintra"
)

// TestChaosGeneralizedExample2FullStack runs the complete ABC stack —
// RBC, CBC, ABA, MVBA, atomic broadcast, threshold signing, client
// invoke — on the paper's Example 2 generalized adversary structure
// (sixteen servers classified by location × operating system), under a
// corruption at the structure's claimed tolerance shape: one full
// location crashed plus one equivocating Byzantine server elsewhere.
// The corrupted set lies inside one maximal adversary set (location 0
// plus operating system 1), so liveness and safety must both hold, and
// every quorum predicate evaluated on the hot path exercises the
// generalized (maximal-set enumeration) code rather than the threshold
// fast path.
func TestChaosGeneralizedExample2FullStack(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16-server stack in -short mode")
	}
	st := sintra.Example2Structure()
	var crashed []int
	for os := 0; os < 4; os++ {
		crashed = append(crashed, sintra.Example2Party(0, os))
	}
	byz := sintra.Example2Party(1, 1)

	isCrashed := make(map[int]bool, len(crashed))
	for _, i := range crashed {
		isCrashed[i] = true
	}
	// Replicas are constructed in ascending server order, skipping the
	// crashed ones, so creation order maps machines to the ordered list
	// of started servers.
	var machines []*chainMachine
	var machineServer []int
	for i := 0; i < st.N(); i++ {
		if !isCrashed[i] {
			machineServer = append(machineServer, i)
		}
	}
	dep, err := sintra.NewDeployment(st, func() sintra.StateMachine {
		m := &chainMachine{}
		machines = append(machines, m)
		return m
	},
		sintra.WithSeed(1234),
		sintra.WithCrashed(crashed...),
		sintra.WithByzantine(byz, sintra.Equivocate()),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dep.Stop)
	if len(machines) != len(machineServer) {
		t.Fatalf("%d machines for %d started servers", len(machines), len(machineServer))
	}

	client, err := dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := int64(-1)
	for i := 0; i < 2; i++ {
		req := []byte(fmt.Sprintf("ex2-chaos-%d", i))
		ans, err := invokeWithin(client, req, 180*time.Second)
		if err != nil {
			t.Fatalf("request %d: liveness lost on Example 2: %v", i, err)
		}
		if err := sintra.VerifyAnswer(dep.Public, "service", ans.ReqID, ans.Result, ans.Signature); err != nil {
			t.Fatalf("request %d: answer does not verify: %v", i, err)
		}
		if ans.Seq <= lastSeq {
			t.Fatalf("request %d ordered at seq %d, not after %d", i, ans.Seq, lastSeq)
		}
		lastSeq = ans.Seq
	}
	if n := dep.Metrics().Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics", n)
	}
	if n := dep.Metrics().Counter("faultsim.actions.equivocate"); n == 0 {
		t.Fatal("the Byzantine server never equivocated — the run attacked nothing")
	}

	// Every honest replica must have walked an identical state chain
	// over the common prefix; the Byzantine server's transport lies to
	// it, so its local state is excluded.
	refIdx := -1
	var ref []chainState
	for k, m := range machines {
		server := machineServer[k]
		if server == byz {
			continue
		}
		h := m.history()
		if refIdx < 0 {
			refIdx, ref = server, h
			continue
		}
		n := min(len(h), len(ref))
		for i := 0; i < n; i++ {
			if h[i] != ref[i] {
				t.Fatalf("replica %d diverged from replica %d at position %d", server, refIdx, i)
			}
		}
	}
}
