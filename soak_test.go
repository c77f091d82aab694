package sintra_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"sintra"
)

// soakMachine is a minimal deterministic Snapshotter service for the
// memory soak: constant-size state (a running hash), so any heap growth
// the soak observes belongs to the protocol stack, not the application.
type soakMachine struct {
	mu    sync.Mutex
	state [32]byte
}

func (m *soakMachine) Apply(seq int64, request []byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := sha256.New()
	h.Write(m.state[:])
	var sb [8]byte
	binary.BigEndian.PutUint64(sb[:], uint64(seq))
	h.Write(sb[:])
	h.Write(request)
	copy(m.state[:], h.Sum(nil))
	return append([]byte(nil), m.state[:]...)
}

func (m *soakMachine) Snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.state[:]...)
}

func (m *soakMachine) Restore(snapshot []byte) error {
	if len(snapshot) != len(m.state) {
		return fmt.Errorf("soak snapshot has %d bytes, want %d", len(snapshot), len(m.state))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.state[:], snapshot)
	return nil
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// TestSoakBoundedMemory drives thousands of deliveries through an n=4
// cluster with checkpointing on and asserts that every map the
// checkpoint/GC subsystem is responsible for stays bounded: the
// delivered-digest dedup set, the router tombstone set, and the request
// bookkeeping all plateau instead of growing with the run, and the heap
// itself levels off. This is the regression test for the unbounded-growth
// leaks: before checkpointing, delivered/tombstones/reqClients all grew
// linearly forever.
func TestSoakBoundedMemory(t *testing.T) {
	total := 5000
	if testing.Short() {
		total = 1000
	}
	const interval = 32
	dep, err := sintra.NewDeployment(
		mustThreshold(t, 4, 1),
		func() sintra.StateMachine { return &soakMachine{} },
		sintra.WithSeed(97),
		sintra.WithTuning(sintra.Tuning{CheckpointInterval: interval, BatchSize: 8, MaxBatchSize: 64}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()

	const workers = 8
	clients := make([]*sintra.Client, workers)
	for i := range clients {
		if clients[i], err = dep.NewClient(); err != nil {
			t.Fatal(err)
		}
	}

	run := func(n, offset int) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += workers {
					req := fmt.Appendf(nil, "soak-%d", offset+i)
					if _, err := invokeWithin(clients[w], req, 120*time.Second); err != nil {
						t.Errorf("request %d: %v", offset+i, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// First half, heap reading, second half, heap reading: a leak that
	// grows with deliveries shows up as first-half-sized growth across the
	// second half; bounded operation shows a plateau.
	run(total/2, 0)
	heapMid := heapInUse()
	run(total-total/2, total/2)
	heapEnd := heapInUse()

	snap := dep.Metrics()
	seq := dep.Node(0).Seq()
	if seq < int64(total) {
		t.Fatalf("delivery frontier %d < %d requests", seq, total)
	}

	// The stable checkpoint must have tracked the frontier...
	stable := snap.Gauges["checkpoint.stable.seq"].Value
	if stable < seq-4*interval {
		t.Fatalf("stable checkpoint %d lags frontier %d by more than 4 intervals", stable, seq)
	}
	// ...and pruning below it must actually have freed entries.
	if n := snap.Counter("checkpoint.gc.freed"); n == 0 {
		t.Fatal("checkpoint GC never freed a delivered-digest entry")
	}

	// Bounded maps, by high-water mark — these are per-run peaks across
	// all four replicas, so the bounds are generous multiples of the
	// per-replica targets yet far below the unbounded-growth failure mode
	// (which would scale with total deliveries).
	if hw := snap.Gauges["abc.delivered.size"].Max; hw > 16*interval {
		t.Errorf("delivered dedup set peaked at %d entries (> %d): GC horizon not keeping up", hw, 16*interval)
	}
	if hw := snap.Gauges["engine.tombstones"].Max; hw > 4096 {
		t.Errorf("router tombstones peaked at %d (> 4096 hard bound)", hw)
	}
	if hw := snap.Gauges["node.reqclients.size"].Max; hw > 4096 {
		t.Errorf("request bookkeeping peaked at %d entries (> 4096 hard bound)", hw)
	}
	if n := snap.Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics during the soak", n)
	}

	// Heap plateau: the second half must not add first-half-scale memory.
	// The slack absorbs allocator noise and metrics history.
	const slack = 64 << 20
	if heapEnd > heapMid+slack {
		t.Errorf("heap grew from %d to %d bytes across the second half: unbounded growth", heapMid, heapEnd)
	}
	t.Logf("seq=%d stable=%d freed=%d delivered.max=%d tombstones.max=%d reqclients.max=%d heap mid=%dKiB end=%dKiB",
		seq, stable, snap.Counter("checkpoint.gc.freed"),
		snap.Gauges["abc.delivered.size"].Max,
		snap.Gauges["engine.tombstones"].Max,
		snap.Gauges["node.reqclients.size"].Max,
		heapMid>>10, heapEnd>>10)
}

// TestSoakWALBounded drives thousands of deliveries through an n=4
// cluster with the durability journal on and asserts that checkpoint
// stability actually truncates the log: after ~5k deliveries every
// replica's on-disk WAL must be a small live tail, not a transcript of
// the whole run (which would be several MB of journaled messages per
// replica and grow forever).
func TestSoakWALBounded(t *testing.T) {
	total := 5000
	if testing.Short() {
		total = 1000
	}
	const interval = 32
	dep, err := sintra.NewDeployment(
		mustThreshold(t, 4, 1),
		func() sintra.StateMachine { return &soakMachine{} },
		sintra.WithSeed(101),
		// NoFsync: the data is throwaway — size, not fsync, is under test.
		sintra.WithTuning(sintra.Tuning{CheckpointInterval: interval, BatchSize: 8, MaxBatchSize: 64, NoFsync: true}),
		sintra.WithDataDir(t.TempDir()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Stop()

	const workers = 8
	clients := make([]*sintra.Client, workers)
	for i := range clients {
		if clients[i], err = dep.NewClient(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += workers {
				req := fmt.Appendf(nil, "wal-soak-%d", i)
				if _, err := invokeWithin(clients[w], req, 120*time.Second); err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// A client is answered by a quorum, which need not include replica 0.
	waitFrontier(t, dep, 0, int64(total))

	snap := dep.Metrics()
	// The journal must have been busy — a bound over an idle log proves
	// nothing.
	records := snap.Counter("wal.records")
	if records < int64(total) {
		t.Fatalf("only %d journaled records across %d deliveries", records, total)
	}
	// Bounded on disk, per replica: the live tail spans a few checkpoint
	// intervals of protocol traffic, orders of magnitude below the full
	// transcript.
	const sizeBound = 4 << 20
	for i := 0; i < 4; i++ {
		j := dep.Node(i).Journal()
		if j == nil {
			t.Fatalf("replica %d has no journal", i)
		}
		if size := j.Size(); size > sizeBound {
			t.Errorf("replica %d WAL is %d bytes (> %d): checkpoint truncation not keeping up", i, size, sizeBound)
		}
	}
	if n := snap.Counter("router.panics"); n != 0 {
		t.Fatalf("router recovered %d handler panics during the WAL soak", n)
	}
	t.Logf("records=%d size0=%dKiB stable=%d", records,
		dep.Node(0).Journal().Size()>>10, snap.Gauges["checkpoint.stable.seq"].Value)
}

func mustThreshold(t *testing.T, n, f int) *sintra.Structure {
	t.Helper()
	st, err := sintra.NewThresholdStructure(n, f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
