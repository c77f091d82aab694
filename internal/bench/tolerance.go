package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/faultsim"
	"sintra/internal/testutil"
)

// ToleranceRow is one point of the resilience sweep: atomic broadcast on
// n=3t+1 servers with a growing number of faulty parties. Crash faults are
// silent; Byzantine faults run the honest code over an equivocating
// transport (faultsim) — the active corruption of the paper's model. Up to
// t faults of either kind the protocol must keep delivering; at t+1
// crashes no quorum exists and progress must stop — the optimal-resilience
// boundary (n > 3t) the paper proves tight.
type ToleranceRow struct {
	N         int
	T         int
	Fault     string // "crash" or "byzantine"
	Faulty    int
	Delivered int
	Live      bool
	Elapsed   time.Duration
}

// RunToleranceSweep sweeps crash counts 0..t+1 and equivocating-Byzantine
// counts 1..t on an (n, t) deployment, attempting ops requests each time;
// beyond-threshold runs are observed for the window and must deliver
// nothing. The paired columns show the protocols absorb active lying at
// the same resilience — and nearly the same cost — as silence.
func RunToleranceSweep(n, t, ops int, window time.Duration) ([]ToleranceRow, error) {
	st, err := adversary.NewThreshold(n, t)
	if err != nil {
		return nil, err
	}
	var rows []ToleranceRow
	for crashed := 0; crashed <= t+1; crashed++ {
		row, err := runTolerancePoint(st, "crash", crashed, ops, window)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	for corrupted := 1; corrupted <= t; corrupted++ {
		row, err := runTolerancePoint(st, "byzantine", corrupted, ops, window)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runTolerancePoint measures one (fault kind, fault count) configuration.
// Faulty parties are taken from the top of the index range so party 0, the
// broadcaster, stays honest; deliveries are counted at honest parties only
// (a Byzantine party's own view is corrupted by its lying transport).
func runTolerancePoint(st *adversary.Structure, fault string, faulty, ops int, window time.Duration) (ToleranceRow, error) {
	n, t := st.N(), st.Thresh
	opts := testutil.Options{Group: benchGroup}
	honest := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		honest[i] = true
	}
	switch fault {
	case "crash":
		opts.Seed = int64(29 + faulty)
		for i := 0; i < faulty; i++ {
			opts.Corrupted = append(opts.Corrupted, n-1-i)
			honest[n-1-i] = false
		}
	case "byzantine":
		opts.Seed = int64(59 + faulty)
		opts.Byzantine = make(map[int][]faultsim.Behavior, faulty)
		for i := 0; i < faulty; i++ {
			opts.Byzantine[n-1-i] = []faultsim.Behavior{faultsim.Equivocate()}
			honest[n-1-i] = false
		}
	default:
		return ToleranceRow{}, fmt.Errorf("bench: unknown fault kind %q", fault)
	}
	c, err := testutil.New(st, opts)
	if err != nil {
		return ToleranceRow{}, err
	}
	defer c.Stop()

	var delivered atomic.Int64
	insts := startABC(c, "tol", &delivered, func(i int, cfg *abc.Config) {
		if !honest[i] {
			cfg.Deliver = func(int64, []byte) {}
		}
	})
	nHonest := 0
	for _, i := range c.Live() {
		if honest[i] {
			nHonest++
		}
	}
	start := time.Now()
	for k := 0; k < ops; k++ {
		_ = insts[0].Broadcast([]byte(fmt.Sprintf("t-%d", k)))
	}
	row := ToleranceRow{N: n, T: t, Fault: fault, Faulty: faulty}
	if faulty <= t {
		// Every honest party must deliver everything.
		err := waitCount(&delivered, nHonest*ops)
		row.Live = err == nil
		row.Delivered = int(delivered.Load()) / nHonest
	} else {
		// Beyond the bound: observe for the window; no delivery may happen
		// (no quorum of proposals can form).
		time.Sleep(window)
		row.Delivered = int(delivered.Load()) / nHonest
		row.Live = row.Delivered > 0
	}
	row.Elapsed = time.Since(start)
	return row, nil
}

// PrintToleranceSweep renders the resilience-boundary table.
func PrintToleranceSweep(wr interface{ Write([]byte) (int, error) }, rows []ToleranceRow) {
	fmt.Fprintf(wr, "T1 — resilience boundary (n > 3t is optimal and tight)\n")
	fmt.Fprintf(wr, "%4s %3s %11s %7s %11s %7s %10s\n", "n", "t", "fault", "faulty", "delivered", "live", "elapsed")
	for _, r := range rows {
		fmt.Fprintf(wr, "%4d %3d %11s %7d %11d %7v %10s\n",
			r.N, r.T, r.Fault, r.Faulty, r.Delivered, r.Live, r.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(wr, "up to t faults — crash-silent or actively equivocating — full progress;\n")
	fmt.Fprintf(wr, "t+1 crashes: no quorum, no progress\n")
}
