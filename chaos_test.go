package sintra_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sintra"
)

// chainMachine is a deterministic state machine whose response IS its
// state: a hash chain over every (seq, request) applied so far. Replicas
// that diverge at any point return different answers forever after, and
// the machine keeps its full (seq, state) history so the suite can compare
// honest replicas' executions position by position.
type chainMachine struct {
	mu    sync.Mutex
	state [32]byte
	hist  []chainState
}

type chainState struct {
	seq   int64
	state [32]byte
}

func (m *chainMachine) Apply(seq int64, request []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := sha256.New()
	h.Write(m.state[:])
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seq))
	h.Write(sb[:])
	h.Write(request)
	copy(m.state[:], h.Sum(nil))
	m.hist = append(m.hist, chainState{seq: seq, state: m.state})
	return append([]byte(nil), m.state[:]...)
}

func (m *chainMachine) history() []chainState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]chainState(nil), m.hist...)
}

// Snapshot/Restore implement sintra.Snapshotter: the chain state IS the
// 32-byte running hash, so the snapshot is trivially deterministic. The
// history is test instrumentation, not replicated state, and resets on
// restore (a restarted replica's history legitimately starts at the
// checkpoint, so the suite compares it to peers by sequence number, not
// by position).
func (m *chainMachine) Snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.state[:]...)
}

func (m *chainMachine) Restore(snapshot []byte) error {
	if len(snapshot) != len(m.state) {
		return fmt.Errorf("chain snapshot has %d bytes, want %d", len(snapshot), len(m.state))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.state[:], snapshot)
	m.hist = nil
	return nil
}

// chainCluster is a deployment over chainMachine replicas, machines[i]
// belonging to server i.
type chainCluster struct {
	dep      *sintra.SimulatedDeployment
	machines []*chainMachine
}

// invokeWithin executes one request with a plain timeout.
func invokeWithin(c *sintra.Client, body []byte, timeout time.Duration) (sintra.Answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.InvokeContext(ctx, body)
}

func newChainCluster(t *testing.T, n, f int, opts ...sintra.SimOption) *chainCluster {
	t.Helper()
	st, err := sintra.NewThresholdStructure(n, f)
	if err != nil {
		t.Fatal(err)
	}
	c := &chainCluster{}
	// Replicas are constructed in ascending server order, so creation
	// order maps machines to server indices (no servers are crashed in
	// the chaos suite).
	newService := func() sintra.StateMachine {
		m := &chainMachine{}
		c.machines = append(c.machines, m)
		return m
	}
	c.dep, err = sintra.NewDeployment(st, newService, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.dep.Stop)
	return c
}

// run drives requests through the cluster under attack and asserts the
// paper's two claims end to end.
//
// Liveness: every request completes.
//
// Safety: each answer carries a valid threshold signature over the full
// hash-chain state — a quorum of replicas attested to an identical
// execution history, and quorum intersection extends that to every honest
// replica. A Byzantine party may legitimately inject its own (garbage)
// requests into the total order, so client sequence numbers are asserted
// to be strictly increasing rather than gapless; replica-level equality is
// checked separately by assertReplicasConsistent.
func (c *chainCluster) run(t *testing.T, requests int) {
	t.Helper()
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := int64(-1)
	for i := 0; i < requests; i++ {
		req := []byte(fmt.Sprintf("chaos-request-%d", i))
		ans, err := invokeWithin(client, req, 120*time.Second)
		if err != nil {
			t.Fatalf("request %d: liveness lost: %v", i, err)
		}
		if err := sintra.VerifyAnswer(c.dep.Public, "service", ans.ReqID, ans.Result, ans.Signature); err != nil {
			t.Fatalf("request %d: answer does not verify: %v", i, err)
		}
		if ans.Seq <= lastSeq {
			t.Fatalf("request %d ordered at seq %d, not after %d", i, ans.Seq, lastSeq)
		}
		lastSeq = ans.Seq
		// No forged threshold output verifies: tampering one byte of the
		// result must break the signature.
		bad := append([]byte(nil), ans.Result...)
		bad[0] ^= 0xff
		if sintra.VerifyAnswer(c.dep.Public, "service", ans.ReqID, bad, ans.Signature) == nil {
			t.Fatal("tampered answer still verifies")
		}
	}
	// No replica goroutine may have panicked on attacker input, however
	// hostile the run was.
	if n := c.dep.Metrics().Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics; attacker input must not reach a panic", n)
	}
	c.assertReplicasConsistent(t)
}

// assertReplicasConsistent compares every honest pair of replicas'
// (seq, state) histories over their common prefix: the total order must
// have driven them through identical states. Corrupted parties are
// excluded — their own transport lies to them, so their local state may
// legitimately diverge. Replicas advance at different speeds, so only the
// shared prefix is compared.
func (c *chainCluster) assertReplicasConsistent(t *testing.T, corrupted ...int) {
	t.Helper()
	bad := make(map[int]bool, len(corrupted))
	for _, i := range corrupted {
		bad[i] = true
	}
	refIdx := -1
	var ref []chainState
	for i, m := range c.machines {
		if bad[i] {
			continue
		}
		h := m.history()
		if refIdx < 0 {
			refIdx, ref = i, h
			continue
		}
		n := len(h)
		if len(ref) < n {
			n = len(ref)
		}
		for k := 0; k < n; k++ {
			if h[k] != ref[k] {
				t.Fatalf("replica %d diverged from replica %d at position %d: seq %d/%d",
					i, refIdx, k, h[k].seq, ref[k].seq)
			}
		}
	}
}

// TestChaosByzantineBehaviors runs the full stack — RBC, CBC, ABA, MVBA,
// atomic broadcast, threshold signing, client invoke — against one
// corrupted party per behavior, at the tolerance bound t=1 of n=4.
func TestChaosByzantineBehaviors(t *testing.T) {
	cases := []struct {
		name      string
		behaviors []sintra.ByzantineBehavior
	}{
		{"equivocate", []sintra.ByzantineBehavior{sintra.Equivocate()}},
		{"mutate", []sintra.ByzantineBehavior{sintra.Mutate(0.7)}},
		{"replay", []sintra.ByzantineBehavior{sintra.Replay(0.5)}},
		{"duplicate", []sintra.ByzantineBehavior{sintra.Duplicate(2)}},
		{"drop", []sintra.ByzantineBehavior{sintra.Drop(1)}},
		{"drop-selective", []sintra.ByzantineBehavior{sintra.DropTo(1, 0, 2)}},
		{"flood", []sintra.ByzantineBehavior{sintra.Flood(3)}},
	}
	for i, tc := range cases {
		tc, i := tc, i
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := newChainCluster(t, 4, 1,
				sintra.WithSeed(int64(100+i)),
				sintra.WithByzantine(1, tc.behaviors...),
			)
			c.run(t, 3)
			c.assertReplicasConsistent(t, 1)
			snap := c.dep.Metrics()
			if n := snap.Counter("faultsim.actions." + tc.behaviors[0].Name()); n == 0 {
				t.Fatalf("behavior %q never fired — the run attacked nothing", tc.name)
			}
			// The mutate fleet must exercise the router's malformed-input
			// guard: a corrupted body that fails to decode is counted and
			// dropped rather than crashing a replica.
			if tc.name == "mutate" {
				if n := snap.Counter("router.malformed"); n == 0 {
					t.Fatal("no malformed payloads counted under mutation")
				}
			}
		})
	}
}

// TestChaosMixedByzantineFleet corrupts a full fleet of t=2 parties out of
// n=7, each with a different attack mix, and requires safety and liveness
// to survive their combination.
func TestChaosMixedByzantineFleet(t *testing.T) {
	c := newChainCluster(t, 7, 2,
		sintra.WithSeed(42),
		sintra.WithByzantine(1, sintra.Equivocate(), sintra.Flood(2)),
		sintra.WithByzantine(3, sintra.Mutate(0.5), sintra.Duplicate(1), sintra.Replay(0.3)),
	)
	c.run(t, 3)
	c.assertReplicasConsistent(t, 1, 3)
	snap := c.dep.Metrics()
	for _, name := range []string{"equivocate", "flood", "mutate", "duplicate", "replay"} {
		if snap.Counter("faultsim.actions."+name) == 0 {
			t.Errorf("behavior %q never fired in the mixed fleet", name)
		}
	}
}

// TestChaosPartitionHeals isolates two of four parties — the remaining
// pair is NOT a quorum, so ordering requires partition-crossing traffic —
// and lets the partition heal after a fixed number of deliveries. The
// request must still complete: the scheduler stays inside the
// eventual-delivery model, and the protocols are asynchronous-safe.
func TestChaosPartitionHeals(t *testing.T) {
	sched := sintra.NewPartitionScheduler(7, 200, 0, 1)
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(7),
		sintra.WithScheduler(sched),
	)
	c.run(t, 2)
	if !sched.Healed() {
		t.Fatal("run completed without the partition ever healing")
	}
}

// TestChaosByzantineWithPartition combines an equivocating party with a
// healing partition — the adversary controls both a replica and the
// schedule, the paper's full threat model.
func TestChaosByzantineWithPartition(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(11),
		sintra.WithScheduler(sintra.NewPartitionScheduler(11, 150, 2)),
		sintra.WithByzantine(1, sintra.Equivocate(), sintra.Duplicate(1)),
	)
	c.run(t, 2)
	c.assertReplicasConsistent(t, 1)
}

// TestChaosBeyondToleranceBoundary shows t is the boundary: with two
// silenced parties in a 4-party deployment that tolerates one fault, the
// remaining two honest parties are not a quorum and the client cannot
// complete. (Safety still holds — there is simply no answer.)
func TestChaosBeyondToleranceBoundary(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(13),
		sintra.WithByzantine(1, sintra.Drop(1)),
		sintra.WithByzantine(2, sintra.Drop(1)),
	)
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	_, err = invokeWithin(client, []byte("doomed"), 3*time.Second)
	if !errors.Is(err, sintra.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout: 2 > t corruptions must stall the service", err)
	}
	c.assertReplicasConsistent(t, 1, 2)
}

// TestChaosByzantineSharesInBatch drives Byzantine shares through the
// coalesced batch-verification stage: one verify worker per replica forces
// a verification backlog (so share bursts genuinely coalesce), while a
// corrupted party tampers the tails of its payloads — messages that mostly
// still decode but carry cryptographically wrong shares. The batch stage
// sees only coin shares here, landing in batches next to honest ones: the
// random-linear-combination check must reject the batch, the binary split
// must isolate the culprits, and the honest remainder must still combine.
// Signature shares (consistent broadcast, answers, checkpoints) skip the
// verify stage and are checked at combine time instead: a combine that
// fails names the tampered shares and the honest ones still certify.
// Every request completes with a verifying threshold answer, no replica
// panics, and honest replicas stay consistent. Run under -race by the
// chaos CI job.
func TestChaosByzantineSharesInBatch(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(31),
		sintra.WithTuning(sintra.Tuning{VerifyWorkers: 1}),
		sintra.WithByzantine(2, sintra.TamperTail(1)),
	)
	c.run(t, 6)
	c.assertReplicasConsistent(t, 2)
	snap := c.dep.Metrics()
	if n := snap.Counter("faultsim.actions.tamper-tail"); n == 0 {
		t.Fatal("tamper-tail never fired — the run attacked nothing")
	}
	// The backlog must have actually coalesced: at least one multi-share
	// BatchVerify call ran...
	if n := snap.Counter("engine.verify.batch.batches"); n == 0 {
		t.Fatal("no coalesced batch-verification calls — the batching stage never engaged")
	}
	// ...and tampered shares must have been caught somewhere: either
	// isolated inside a batch by the binary split, or rejected by the
	// per-message path (tampers that broke the gob framing are counted as
	// malformed instead).
	culprits := snap.Counter("engine.verify.batch.culprits")
	malformed := snap.Counter("router.malformed")
	if culprits == 0 && malformed == 0 {
		t.Fatal("no culprits isolated and no malformed payloads dropped under full tampering")
	}
	t.Logf("batches=%d batched msgs=%d culprits=%d malformed=%d",
		snap.Counter("engine.verify.batch.batches"),
		snap.Counter("engine.verify.batch.messages"), culprits, malformed)
}

// TestChaosReplicaRestartCatchUp kills one replica mid-load, keeps the
// cluster ordering requests for several checkpoint intervals, restarts
// the replica with empty state, and requires it to rejoin via checkpoint
// state transfer: fetch the certified snapshot from a peer, verify the
// threshold certificate, install, replay the retained suffix, and track
// the live frontier again.
func TestChaosReplicaRestartCatchUp(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(23),
		sintra.WithTuning(sintra.Tuning{CheckpointInterval: 8}),
	)
	client, err := c.dep.NewClient()
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(i int) {
		req := []byte(fmt.Sprintf("restart-request-%d", i))
		ans, err := invokeWithin(client, req, 120*time.Second)
		if err != nil {
			t.Fatalf("request %d: liveness lost: %v", i, err)
		}
		if err := sintra.VerifyAnswer(c.dep.Public, "service", ans.ReqID, ans.Result, ans.Signature); err != nil {
			t.Fatalf("request %d: answer does not verify: %v", i, err)
		}
	}

	// Phase 1: all four replicas live.
	for i := 0; i < 4; i++ {
		invoke(i)
	}
	c.dep.StopServer(3)
	// Phase 2: the remaining three replicas (an exact quorum at n=4, t=1)
	// keep ordering across at least two checkpoint intervals, so stable
	// checkpoints form — and garbage-collect history — while 3 is gone.
	for i := 4; i < 24; i++ {
		invoke(i)
	}
	if err := c.dep.RestartServer(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// newService appends, so the restarted server's fresh machine is last.
	restarted := c.machines[len(c.machines)-1]
	// Phase 3: load after the restart.
	for i := 24; i < 32; i++ {
		invoke(i)
	}

	// The restarted replica must reach the live delivery frontier.
	target := c.dep.Node(0).Seq()
	deadline := time.Now().Add(60 * time.Second)
	for c.dep.Node(3).Seq() < target {
		if time.Now().After(deadline) {
			t.Fatalf("replica 3 stuck at seq %d, live frontier %d", c.dep.Node(3).Seq(), target)
		}
		time.Sleep(5 * time.Millisecond)
	}

	snap := c.dep.Metrics()
	if n := snap.Counter("checkpoint.catchup.installs"); n == 0 {
		t.Fatal("replica 3 caught up without ever installing a checkpoint")
	}
	if n := snap.Counter("checkpoint.certs"); n == 0 {
		t.Fatal("no stable checkpoint certificates formed")
	}
	if s := snap.Gauges["checkpoint.stable.seq"].Value; s == 0 {
		t.Fatal("stable checkpoint seq gauge never advanced")
	}
	if n := snap.Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics during restart", n)
	}

	// Catch-up correctness: wherever the restarted machine and a
	// continuously-live machine applied the same sequence number, the
	// chain states must be identical — the certified snapshot plus suffix
	// replay reproduced the exact execution.
	hist := restarted.history()
	if len(hist) == 0 {
		t.Fatal("restarted replica never applied a request after catch-up")
	}
	bySeq := make(map[int64][32]byte)
	for _, e := range c.machines[0].history() {
		bySeq[e.seq] = e.state
	}
	matched := 0
	for _, e := range hist {
		ref, ok := bySeq[e.seq]
		if !ok {
			continue
		}
		if ref != e.state {
			t.Fatalf("restarted replica diverged at seq %d", e.seq)
		}
		matched++
	}
	if matched == 0 {
		t.Fatal("restarted replica shares no sequence numbers with a live replica")
	}
	// The continuously-live machines (the restarted instance is compared
	// by seq above; index 4 is that fresh instance) stay consistent.
	c.assertReplicasConsistent(t, 4)
}

// TestChaosSecureCausalUnderAttack runs the secure causal mode (threshold
// decryption on the critical path) against a corrupted party.
func TestChaosSecureCausalUnderAttack(t *testing.T) {
	c := newChainCluster(t, 4, 1,
		sintra.WithSeed(17),
		sintra.WithMode(sintra.ModeSecureCausal),
		sintra.WithByzantine(3, sintra.Mutate(0.3), sintra.Replay(0.3)),
	)
	c.run(t, 2)
	c.assertReplicasConsistent(t, 3)
}
