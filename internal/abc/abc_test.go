package abc_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/identity"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// harness runs one atomic-broadcast instance per (honest) party and
// records each party's delivery log.
type harness struct {
	c     *testutil.Cluster
	insts map[int]*abc.ABC

	mu   sync.Mutex
	logs map[int][][]byte
	cond *sync.Cond
}

func newHarness(t *testing.T, c *testutil.Cluster, parties []int) *harness {
	return newHarnessCfg(t, c, parties, nil)
}

// newHarnessCfg is newHarness with a hook to adjust each party's config
// (e.g. batch-size knobs) before the instance is created.
func newHarnessCfg(t *testing.T, c *testutil.Cluster, parties []int, adjust func(*abc.Config)) *harness {
	t.Helper()
	h := &harness{
		c:     c,
		insts: make(map[int]*abc.ABC, len(parties)),
		logs:  make(map[int][][]byte, len(parties)),
	}
	h.cond = sync.NewCond(&h.mu)
	for _, i := range parties {
		i := i
		c.Routers[i].DoSync(func() {
			cfg := c.ABC(i)
			cfg.Instance = "svc"
			cfg.Deliver = func(seq int64, payload []byte) {
				h.mu.Lock()
				defer h.mu.Unlock()
				if int64(len(h.logs[i])) != seq {
					t.Errorf("party %d: seq %d but log has %d entries", i, seq, len(h.logs[i]))
				}
				h.logs[i] = append(h.logs[i], payload)
				h.cond.Broadcast()
			}
			if adjust != nil {
				adjust(&cfg)
			}
			h.insts[i] = abc.New(cfg)
		})
	}
	return h
}

// waitLogs blocks until every listed party delivered at least want
// payloads.
func (h *harness) waitLogs(t *testing.T, parties []int, want int, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.mu.Lock()
		defer h.mu.Unlock()
		for {
			ok := true
			for _, p := range parties {
				if len(h.logs[p]) < want {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			h.cond.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		h.mu.Lock()
		counts := make(map[int]int)
		for _, p := range parties {
			counts[p] = len(h.logs[p])
		}
		h.mu.Unlock()
		h.cond.Broadcast()
		t.Fatalf("timeout waiting for %d deliveries: %v", want, counts)
	}
}

// assertSameOrder verifies all listed parties delivered identical logs
// (up to the shortest length, which must be at least want).
func (h *harness) assertSameOrder(t *testing.T, parties []int, want int) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	ref := h.logs[parties[0]]
	if len(ref) < want {
		t.Fatalf("party %d delivered only %d", parties[0], len(ref))
	}
	for _, p := range parties[1:] {
		log := h.logs[p]
		n := len(ref)
		if len(log) < n {
			n = len(log)
		}
		for k := 0; k < n; k++ {
			if !bytes.Equal(ref[k], log[k]) {
				t.Fatalf("total order violated at position %d between parties %d and %d: %q vs %q",
					k, parties[0], p, ref[k], log[k])
			}
		}
	}
}

func TestTotalOrderSingleSubmitter(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 2})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 6
	for k := 0; k < total; k++ {
		if err := h.insts[0].Broadcast([]byte(fmt.Sprintf("req-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 90*time.Second)
	h.assertSameOrder(t, parties, total)
}

func TestTotalOrderConcurrentSubmitters(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 3})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const per = 3
	for i := 0; i < 4; i++ {
		for k := 0; k < per; k++ {
			if err := h.insts[i].Broadcast([]byte(fmt.Sprintf("req-%d-%d", i, k))); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := 4 * per
	h.waitLogs(t, parties, total, 120*time.Second)
	h.assertSameOrder(t, parties, total)
	// Every submitted request must appear exactly once.
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]int)
	for _, p := range h.logs[0] {
		seen[string(p)]++
	}
	for i := 0; i < 4; i++ {
		for k := 0; k < per; k++ {
			key := fmt.Sprintf("req-%d-%d", i, k)
			if seen[key] != 1 {
				t.Fatalf("request %q delivered %d times", key, seen[key])
			}
		}
	}
}

func TestDuplicateSubmissionsDelivered0nce(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 5})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	// The same payload submitted at every party must be delivered once.
	msg := []byte("idempotent request")
	for i := 0; i < 4; i++ {
		if err := h.insts[i].Broadcast(msg); err != nil {
			t.Fatal(err)
		}
	}
	marker := []byte("marker")
	if err := h.insts[1].Broadcast(marker); err != nil {
		t.Fatal(err)
	}
	h.waitLogs(t, parties, 2, 90*time.Second)
	h.assertSameOrder(t, parties, 2)
	h.mu.Lock()
	defer h.mu.Unlock()
	count := 0
	for _, p := range h.logs[0] {
		if bytes.Equal(p, msg) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate payload delivered %d times", count)
	}
}

func TestProgressWithCrashedParty(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 7, Corrupted: []int{3}})
	parties := []int{0, 1, 2}
	h := newHarness(t, c, parties)
	const total = 4
	for k := 0; k < total; k++ {
		if err := h.insts[k%3].Broadcast([]byte(fmt.Sprintf("c-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 120*time.Second)
	h.assertSameOrder(t, parties, total)
}

func TestProgressUnderAdversarialScheduler(t *testing.T) {
	// Starve one party's inbound traffic; the others must keep ordering,
	// and the starved party must deliver the same prefix eventually.
	st := adversary.MustThreshold(4, 1)
	sched := netsim.NewDelayScheduler(11, func(m *wire.Message) bool { return m.To == 2 })
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: sched})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 3
	for k := 0; k < total; k++ {
		if err := h.insts[0].Broadcast([]byte(fmt.Sprintf("s-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, []int{0, 1, 3}, total, 120*time.Second)
	h.waitLogs(t, []int{2}, total, 120*time.Second)
	h.assertSameOrder(t, parties, total)
}

func TestGeneralAdversaryAtomicBroadcast(t *testing.T) {
	// Example 1 with all of class a crashed: 5 of 9 servers order requests.
	st := adversary.Example1()
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 13, Corrupted: []int{0, 1, 2, 3}})
	parties := []int{4, 5, 6, 7, 8}
	h := newHarness(t, c, parties)
	const total = 3
	for k := 0; k < total; k++ {
		if err := h.insts[parties[k%len(parties)]].Broadcast([]byte(fmt.Sprintf("g-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 180*time.Second)
	h.assertSameOrder(t, parties, total)
}

func TestSequenceNumbersAreDense(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 17})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 5
	for k := 0; k < total; k++ {
		if err := h.insts[1].Broadcast([]byte(fmt.Sprintf("d-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 90*time.Second)
	// Density is asserted inside the Deliver callback (seq == len(log)).
	for _, i := range parties {
		if got := h.insts[i].Seq(); got < total {
			t.Fatalf("party %d Seq = %d", i, got)
		}
	}
}

func TestSustainedLoad(t *testing.T) {
	// Soak: 40 requests across all parties with small batches, checking
	// the log stays dense, identical, and complete.
	if testing.Short() {
		t.Skip("soak test")
	}
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 61})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 40
	for k := 0; k < total; k++ {
		if err := h.insts[k%4].Broadcast([]byte(fmt.Sprintf("soak-%03d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 300*time.Second)
	h.assertSameOrder(t, parties, total)
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]bool, total)
	for _, p := range h.logs[0] {
		if seen[string(p)] {
			t.Fatalf("duplicate %q", p)
		}
		seen[string(p)] = true
	}
	if len(seen) < total {
		t.Fatalf("only %d distinct of %d", len(seen), total)
	}
}

func TestAdaptiveBatchBurst(t *testing.T) {
	// A burst far beyond BatchSize on one party: the adaptive bound must
	// grow toward MaxBatchSize to drain it, and every payload still
	// delivers exactly once in the same total order. Round() being read
	// here while the dispatch goroutines advance rounds also exercises
	// the atomic progress metrics under the race detector.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 29})
	parties := []int{0, 1, 2, 3}
	h := newHarnessCfg(t, c, parties, func(cfg *abc.Config) {
		cfg.BatchSize = 2
		cfg.MaxBatchSize = 16
	})
	const total = 24
	for k := 0; k < total; k++ {
		if err := h.insts[0].Broadcast([]byte(fmt.Sprintf("burst-%03d", k))); err != nil {
			t.Fatal(err)
		}
		if k%5 == 0 {
			_ = h.insts[0].Round() // cross-goroutine read during the run
		}
	}
	h.waitLogs(t, parties, total, 300*time.Second)
	h.assertSameOrder(t, parties, total)
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]bool, total)
	for _, p := range h.logs[0] {
		if seen[string(p)] {
			t.Fatalf("duplicate %q", p)
		}
		seen[string(p)] = true
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct of %d", len(seen), total)
	}
	// With a fixed bound of 2 the burst needs >= 12 rounds; adaptation
	// must have finished in strictly fewer.
	for _, i := range parties {
		if r := h.insts[i].Round(); r >= 12 {
			t.Fatalf("party %d still at round %d: batch bound did not grow", i, r)
		}
	}
}

// TestOwnProposalTakenUnchecked: a party takes its own PROPOSAL, which
// the router loops back to it, without an Identity.Verify call. Party 0's
// registry holds party 1's key in party 0's place, so any check of party
// 0's own signature there fails; with party 3 crashed, every round needs
// party 0's own proposal at party 0, and the requests are still ordered.
// Parties 1 and 2 check it under the right key.
func TestOwnProposalTakenUnchecked(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 7, Corrupted: []int{3}})
	parties := []int{0, 1, 2}
	h := newHarnessCfg(t, c, parties, func(cfg *abc.Config) {
		if cfg.Router.Self() == 0 {
			keys := append([][]byte(nil), cfg.Identity.PubKeys...)
			keys[0] = keys[1]
			cfg.Identity = &identity.Registry{PubKeys: keys}
		}
	})
	const total = 4
	for k := 0; k < total; k++ {
		if err := h.insts[k%3].Broadcast([]byte(fmt.Sprintf("own-%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	h.waitLogs(t, parties, total, 30*time.Second)
	h.assertSameOrder(t, parties, total)
}
