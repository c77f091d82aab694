package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/netsim"
)

// BatchVerifyRow is one end-to-end measurement of atomic broadcast with
// share-burst batch verification on (coalesced multi-exponentiation) or
// off (every share proof checked individually).
type BatchVerifyRow struct {
	Mode        string
	N, Requests int
	LatencyAll  time.Duration
	// Batches/BatchedMsgs sum the engine.verify.batch counters over all
	// parties: coalesced BatchVerify calls and the messages they covered
	// (both zero with batching off).
	Batches     int64
	BatchedMsgs int64
}

// RunBatchVerifySweep orders the same request load once per mode — "on"
// engages the engine's coalescing batch-verification stage, "off" forces
// the per-share fallback — and reports end-to-end time plus how much
// coalescing actually happened. Every run uses the identical seeded
// schedule, so the difference is the verification strategy alone.
func RunBatchVerifySweep(n, requests int, modes []string) ([]BatchVerifyRow, error) {
	st, err := adversary.NewThreshold(n, (n-1)/3)
	if err != nil {
		return nil, err
	}
	var rows []BatchVerifyRow
	for _, mode := range modes {
		// One verify worker per router: coalescing pays off exactly when
		// verification cannot fan out over spare cores, so the sweep models
		// the CPU-bound deployment where the backlog the batcher drains
		// actually forms.
		opts := clusterOptions{sched: netsim.NewRandomScheduler(23), verifyWorkers: 1}
		var name string
		switch mode {
		case "on":
			name = "batched"
		case "off":
			opts.verifyBatch = -1
			name = "per-share"
		default:
			return nil, fmt.Errorf("bench: unknown batch mode %q (want on or off)", mode)
		}
		row, err := runBatchVerifyOnce(st, opts, name, requests)
		if err != nil {
			return nil, fmt.Errorf("bench: batch sweep %s: %w", name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runBatchVerifyOnce(st *adversary.Structure, opts clusterOptions, mode string, requests int) (BatchVerifyRow, error) {
	n := st.N()
	c, err := newCluster(st, opts)
	if err != nil {
		return BatchVerifyRow{}, err
	}
	defer c.stop()
	var delivered atomic.Int64
	insts := make(map[int]*abc.ABC, n)
	for _, i := range c.alive() {
		i := i
		c.routers[i].DoSync(func() {
			insts[i] = abc.New(abc.Config{
				Router: c.routers[i], Struct: st, Instance: "batchsweep",
				Identity: c.pub.Identity, IDKey: c.secrets[i].Identity,
				Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
				Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
				Deliver: func(int64, []byte) { delivered.Add(1) },
			})
		})
	}
	start := time.Now()
	// The whole load lands up front, spread over the parties, so share
	// bursts pile up in the verify queues — the shape coalescing targets.
	for k := 0; k < requests; k++ {
		if err := insts[k%n].Broadcast([]byte(fmt.Sprintf("req-%03d", k))); err != nil {
			return BatchVerifyRow{}, err
		}
	}
	if err := waitCount(func() int { return int(delivered.Load()) }, n*requests, defaultTimeout); err != nil {
		return BatchVerifyRow{}, err
	}
	elapsed := time.Since(start)
	snap := c.reg.Snapshot()
	return BatchVerifyRow{
		Mode:        mode,
		N:           n,
		Requests:    requests,
		LatencyAll:  elapsed,
		Batches:     snap.Counter("engine.verify.batch.batches"),
		BatchedMsgs: snap.Counter("engine.verify.batch.messages"),
	}, nil
}
