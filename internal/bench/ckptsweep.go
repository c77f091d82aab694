package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"sintra"
)

// ckptMachine is the sweep's Snapshotter service: a constant-size hash
// chain, so checkpointing cost is protocol overhead (snapshot, shares,
// certificate, GC), not application serialization.
type ckptMachine struct {
	mu    sync.Mutex
	state [32]byte
}

func (m *ckptMachine) Apply(seq int64, request []byte) []byte {
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

func (m *ckptMachine) Snapshot() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.state[:]...)
}

func (m *ckptMachine) Restore(snapshot []byte) error {
	if len(snapshot) != 32 {
		return fmt.Errorf("bad snapshot length %d", len(snapshot))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	copy(m.state[:], snapshot)
	return nil
}

// CostRow is one end-to-end measurement of the full service stack with a
// subsystem on or off; Values are the sweep's own metric columns (all zero
// with the subsystem off).
type CostRow struct {
	Mode        string
	N, Requests int
	LatencyAll  time.Duration
	Values      []int64
}

// CostSweep orders the same request load through the full
// replicated-service stack once per mode — "on" or "off" — under the
// identical seeded schedule, measuring what a subsystem costs end to end.
type CostSweep struct {
	what    string // names the subsystem in errors and the overhead line
	title   string
	on, off string   // row labels
	columns []string // headers of CostRow.Values
	// tuning is the replicas' knobs with the subsystem on and off.
	onTuning, offTuning sintra.Tuning
	// dataDir gives the "on" deployment a throwaway data directory that
	// lives as long as it does.
	dataDir bool
	values  func(sintra.MetricsSnapshot) []int64
}

// sweepInterval keeps checkpoints (and with them journal truncation)
// frequent relative to the short request load.
const sweepInterval = 16

// Run measures one row per mode.
func (c CostSweep) Run(n, requests int, modes []string) ([]CostRow, error) {
	st, err := sintra.NewThresholdStructure(n, (n-1)/3)
	if err != nil {
		return nil, err
	}
	var rows []CostRow
	for _, mode := range modes {
		if mode != "on" && mode != "off" {
			return nil, fmt.Errorf("bench: unknown %s mode %q (want on or off)", c.what, mode)
		}
		dir, err := os.MkdirTemp("", "sintra-sweep-*")
		if err != nil {
			return nil, err
		}
		opts := []sintra.SimOption{sintra.WithTuning(c.offTuning)}
		if mode == "on" {
			opts = []sintra.SimOption{sintra.WithTuning(c.onTuning)}
			if c.dataDir {
				opts = append(opts, sintra.WithDataDir(dir))
			}
		}
		elapsed, snap, err := orderSequentially(st, requests, opts...)
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: %s sweep %s: %w", c.what, mode, err)
		}
		name := c.off
		if mode == "on" {
			name = c.on
		}
		rows = append(rows, CostRow{name, st.N(), requests, elapsed, c.values(snap)})
	}
	return rows, nil
}

// orderSequentially starts a deployment of ckptMachine replicas under the
// sweeps' fixed seed, orders requests one at a time from one client, and
// returns the time that took and the deployment's final metrics.
func orderSequentially(st *sintra.Structure, requests int, opts ...sintra.SimOption) (time.Duration, sintra.MetricsSnapshot, error) {
	dep, err := sintra.NewDeployment(st,
		func() sintra.StateMachine { return &ckptMachine{} },
		append([]sintra.SimOption{sintra.WithSeed(23)}, opts...)...)
	if err != nil {
		return 0, sintra.MetricsSnapshot{}, err
	}
	defer dep.Stop()
	client, err := dep.NewClient()
	if err != nil {
		return 0, sintra.MetricsSnapshot{}, err
	}
	start := time.Now()
	for k := 0; k < requests; k++ {
		ctx, cancel := context.WithTimeout(context.Background(), defaultTimeout)
		_, err := client.InvokeContext(ctx, fmt.Appendf(nil, "request-%03d", k))
		cancel()
		if err != nil {
			return 0, sintra.MetricsSnapshot{}, err
		}
	}
	return time.Since(start), dep.Metrics(), nil
}

// Print renders the rows and, when both modes ran, the relative cost.
func (c CostSweep) Print(w io.Writer, rows []CostRow) {
	fmt.Fprintln(w, c.title)
	fmt.Fprintf(w, "%-14s %3s %9s %12s", "mode", "n", "requests", "total")
	for _, col := range c.columns {
		fmt.Fprintf(w, " %14s", col)
	}
	fmt.Fprintln(w)
	var on, off time.Duration
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %3d %9d %12s", r.Mode, r.N, r.Requests, r.LatencyAll.Round(time.Millisecond))
		for _, v := range r.Values {
			fmt.Fprintf(w, " %14d", v)
		}
		fmt.Fprintln(w)
		if r.Mode == c.on {
			on = r.LatencyAll
		} else {
			off = r.LatencyAll
		}
	}
	if on > 0 && off > 0 {
		fmt.Fprintf(w, "%s overhead: %+.1f%% end-to-end\n", c.what, 100*(float64(on)-float64(off))/float64(off))
	}
}

// CheckpointSweep prices the checkpoint protocol: certify + GC every
// sweepInterval deliveries against the subsystem disabled (the acceptance
// target is < 5%). Columns: the final stable checkpoint, pruned
// delivered-digest entries summed over replicas, and the dedup set's
// high-water mark.
var CheckpointSweep = CostSweep{
	what:  "checkpoint",
	title: fmt.Sprintf("Checkpoint/GC cost (full service stack, interval %d)", sweepInterval),
	on:    "checkpointed", off: "no-checkpoint",
	columns:   []string{"stable.seq", "freed", "delivered.max"},
	onTuning:  sintra.Tuning{CheckpointInterval: sweepInterval},
	offTuning: sintra.Tuning{CheckpointInterval: -1},
	values: func(snap sintra.MetricsSnapshot) []int64 {
		return []int64{snap.Gauges["checkpoint.stable.seq"].Value, snap.Counter("checkpoint.gc.freed"), snap.Gauges["abc.delivered.size"].Max}
	},
}
