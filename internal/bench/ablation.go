package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/testutil"
)

// BatchRow is one measurement of the batching ablation: atomic-broadcast
// throughput as a function of the proposal batch size.
type BatchRow struct {
	BatchSize  int
	Requests   int
	Rounds     int64
	MsgsPerReq float64
	LatencyAll time.Duration
}

// RunBatchAblation orders the same request load (n=4) with different
// proposal batch sizes. Larger batches amortize the per-round agreement
// over more requests — the knob the paper's "optimizations" discussion
// (§6) points at.
func RunBatchAblation(batchSizes []int, requests int) ([]BatchRow, error) {
	var rows []BatchRow
	st := adversary.MustThreshold(4, 1)
	for _, bs := range batchSizes {
		c, err := testutil.New(st, testutil.Options{Group: benchGroup, Seed: 17})
		if err != nil {
			return nil, err
		}
		var delivered atomic.Int64
		insts := startABC(c, "batch", &delivered, func(_ int, cfg *abc.Config) {
			// Ceiling = floor pins the batch: with adaptive growth on,
			// "batch 1" climbs to 8 under this backlog and the rows
			// measure the same thing.
			cfg.BatchSize, cfg.MaxBatchSize = bs, bs
		})
		start := time.Now()
		// Submit the whole load up front, spread over the parties, so
		// batching has something to batch.
		for k := 0; k < requests; k++ {
			if err := insts[k%4].Broadcast([]byte(fmt.Sprintf("req-%03d", k))); err != nil {
				c.Stop()
				return nil, err
			}
		}
		if err := waitCount(&delivered, 4*requests); err != nil {
			c.Stop()
			return nil, err
		}
		elapsed := time.Since(start)
		msgs, _ := c.Net.Stats().Total()
		var rounds int64
		c.Routers[0].DoSync(func() { rounds = insts[0].Round() - 1 })
		c.Stop()
		rows = append(rows, BatchRow{
			BatchSize:  bs,
			Requests:   requests,
			Rounds:     rounds,
			MsgsPerReq: float64(msgs) / float64(requests),
			LatencyAll: elapsed,
		})
	}
	return rows, nil
}

// SigSchemeRow is one measurement of the signature-scheme ablation: the
// dealer's default (a quorum certificate of Ed25519 signatures and, up to
// K = 5, a Shoup threshold-RSA answer key) versus ForceCert (certificates
// for both keys), both driving the same atomic broadcast.
type SigSchemeRow struct {
	Scheme     string
	N          int
	Requests   int
	MsgsPerReq float64
	BytesPer   float64
	LatencyAll time.Duration
}

// RunSigSchemeAblation compares the two dealings (DESIGN.md substitutions
// 2 and 8) on the same atomic-broadcast workload at n = 3t+1.
func RunSigSchemeAblation(n, requests int) ([]SigSchemeRow, error) {
	st, err := adversary.NewThreshold(n, (n-1)/3)
	if err != nil {
		return nil, err
	}
	var rows []SigSchemeRow
	for _, scheme := range []string{"deal default (quorum certificate)", "ForceCert"} {
		c, err := testutil.New(st, testutil.Options{Group: benchGroup, Seed: 19, ForceCert: scheme == "ForceCert"})
		if err != nil {
			return nil, err
		}
		var delivered atomic.Int64
		insts := startABC(c, "sig", &delivered, nil)
		start := time.Now()
		for k := 0; k < requests; k++ {
			if err := insts[k%n].Broadcast([]byte(fmt.Sprintf("req-%03d", k))); err != nil {
				c.Stop()
				return nil, err
			}
			if err := waitCount(&delivered, n*(k+1)); err != nil {
				c.Stop()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		msgs, bytes := c.Net.Stats().Total()
		c.Stop()
		rows = append(rows, SigSchemeRow{
			Scheme:     scheme,
			N:          n,
			Requests:   requests,
			MsgsPerReq: float64(msgs) / float64(requests),
			BytesPer:   float64(bytes) / float64(requests),
			LatencyAll: elapsed,
		})
	}
	return rows, nil
}
