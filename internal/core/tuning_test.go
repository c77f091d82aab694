package core

import (
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/testutil"
)

// snapService is a Snapshotter, so checkpointing engages by default.
type snapService struct{}

func (snapService) Apply(int64, []byte) []byte { return nil }
func (snapService) Snapshot() []byte           { return nil }
func (snapService) Restore([]byte) error       { return nil }

// tunedNode starts party 0's node of a fresh four-party deployment under
// the given Tuning, journaling into a throwaway DataDir.
func tunedNode(t *testing.T, tuning Tuning) (*Node, *obs.Registry) {
	t.Helper()
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Corrupted: []int{0, 1, 2, 3}})
	reg := obs.NewRegistry()
	n, err := NewNode(NodeConfig{
		Public:      c.Pub,
		Secret:      c.Secrets[0],
		Transport:   c.Net.Endpoint(0),
		ServiceName: "test",
		Service:     snapService{},
		Mode:        ModeAtomic,
		Observer:    reg,
		DataDir:     t.TempDir(),
		Tuning:      tuning,
	})
	if err != nil {
		t.Fatal(err)
	}
	go n.Run()
	t.Cleanup(n.Stop)
	return n, reg
}

// fsyncsAfterCommit journals one record, waits until the journal reports
// it durable, and returns how many fsyncs that took.
func fsyncsAfterCommit(t *testing.T, n *Node, reg *obs.Registry) int64 {
	t.Helper()
	if err := n.journal.RecordDeliver(1, []byte("digest")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		appended, durable, changed, err := n.journal.Progress()
		if err != nil {
			t.Fatal(err)
		}
		if durable >= appended {
			return reg.Snapshot().Counter("wal.fsyncs")
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("journal never became durable")
		}
	}
}

// TestTuningDeclaredOnce pins the one convention of Tuning — 0 is the
// default, negative is off, positive is the value — at the only place
// that resolves it: a node built from the zero Tuning and a node built
// from the documented defaults written out are configured identically,
// and every "negative = off" entry really is off.
func TestTuningDeclaredOnce(t *testing.T) {
	workers := engine.DefaultVerifyWorkers() // GOMAXPROCS; no pool on one CPU
	if workers == 0 {
		workers = -1
	}
	documented := Tuning{
		VerifyWorkers:      workers,
		BatchSize:          8,
		MaxBatchSize:       64,
		CheckpointInterval: 256,
		CodedThreshold:     4096,
		NoFsync:            false,
	}
	zero, zeroReg := tunedNode(t, Tuning{})
	written, _ := tunedNode(t, documented)
	if zero.cfg.Tuning != documented || written.cfg.Tuning != documented {
		t.Fatalf("resolved tunings differ from the documented defaults:\n zero    %+v\n written %+v\n want    %+v",
			zero.cfg.Tuning, written.cfg.Tuning, documented)
	}
	if zero.ckpt == nil {
		t.Error("checkpointing is off by default for a Snapshotter service in atomic mode")
	}
	if n := fsyncsAfterCommit(t, zero, zeroReg); n == 0 {
		t.Error("fsync is off by default: a record became durable without one")
	}

	off := Tuning{
		VerifyWorkers:      -3,
		BatchSize:          -1,
		MaxBatchSize:       -1,
		CheckpointInterval: -1,
		CodedThreshold:     -2,
		NoFsync:            true,
	}
	node, reg := tunedNode(t, off)
	got := node.cfg.Tuning
	if got.VerifyWorkers != -1 {
		t.Errorf("VerifyWorkers off resolved to %d, want -1 (inline verification)", got.VerifyWorkers)
	}
	if got.BatchSize != 1 || got.MaxBatchSize != 1 {
		t.Errorf("batching off resolved to floor %d ceiling %d, want one payload per proposal, pinned", got.BatchSize, got.MaxBatchSize)
	}
	if got.CheckpointInterval != -1 || node.ckpt != nil {
		t.Errorf("CheckpointInterval off resolved to %d (tracker built: %v)", got.CheckpointInterval, node.ckpt != nil)
	}
	if got.CodedThreshold != -1 {
		t.Errorf("CodedThreshold off resolved to %d, want -1", got.CodedThreshold)
	}
	if n := fsyncsAfterCommit(t, node, reg); n != 0 {
		t.Errorf("NoFsync: %d fsyncs", n)
	}

	// Adaptation alone off: the ceiling follows the floor. A ceiling below
	// the floor clamps to it.
	for _, tc := range []struct{ in, want Tuning }{
		{Tuning{MaxBatchSize: -1}, Tuning{BatchSize: 8, MaxBatchSize: 8}},
		{Tuning{BatchSize: 4}, Tuning{BatchSize: 4, MaxBatchSize: 32}},
		{Tuning{BatchSize: 16, MaxBatchSize: 2}, Tuning{BatchSize: 16, MaxBatchSize: 16}},
	} {
		got := tc.in.resolved()
		if got.BatchSize != tc.want.BatchSize || got.MaxBatchSize != tc.want.MaxBatchSize {
			t.Errorf("%+v resolved to floor %d ceiling %d, want %d/%d", tc.in, got.BatchSize, got.MaxBatchSize, tc.want.BatchSize, tc.want.MaxBatchSize)
		}
	}
	// Resolving is idempotent: a resolved Tuning is its own written-out form.
	if again := got.resolved(); again != got {
		t.Errorf("resolved() is not idempotent: %+v then %+v", got, again)
	}
}
