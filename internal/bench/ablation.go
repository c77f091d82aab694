package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/netsim"
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
		c, err := newCluster(st, clusterOptions{sched: netsim.NewRandomScheduler(17)})
		if err != nil {
			return nil, err
		}
		var delivered atomic.Int64
		insts := make(map[int]*abc.ABC, 4)
		for _, i := range c.alive() {
			i := i
			c.routers[i].DoSync(func() {
				insts[i] = abc.New(abc.Config{
					Router: c.routers[i], Struct: st, Instance: "batch",
					Identity: c.pub.Identity, IDKey: c.secrets[i].Identity,
					Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
					Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
					// Ceiling = floor pins the batch: with adaptive growth
					// on, "batch 1" climbs to 8 under this backlog and the
					// rows measure the same thing.
					BatchSize: bs, MaxBatchSize: bs,
					Deliver: func(int64, []byte) { delivered.Add(1) },
				})
			})
		}
		start := time.Now()
		// Submit the whole load up front, spread over the parties, so
		// batching has something to batch.
		for k := 0; k < requests; k++ {
			if err := insts[k%4].Broadcast([]byte(fmt.Sprintf("req-%03d", k))); err != nil {
				c.stop()
				return nil, err
			}
		}
		if err := waitCount(func() int { return int(delivered.Load()) }, 4*requests, defaultTimeout); err != nil {
			c.stop()
			return nil, err
		}
		elapsed := time.Since(start)
		msgs, _ := c.net.Stats().Total()
		var rounds int64
		c.routers[0].DoSync(func() { rounds = insts[0].Round() - 1 })
		c.stop()
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

// SigSchemeRow is one measurement of the signature-scheme ablation:
// Shoup threshold RSA (constant-size signatures, heavy arithmetic) versus
// the Ed25519 certificate scheme (linear-size, cheap), both driving the
// same atomic broadcast.
type SigSchemeRow struct {
	Scheme     string
	N          int
	Requests   int
	MsgsPerReq float64
	BytesPer   float64
	LatencyAll time.Duration
}

// RunSigSchemeAblation compares the two threshold-signature realizations
// (DESIGN.md substitution 2) on the same atomic-broadcast workload.
func RunSigSchemeAblation(n, requests int) ([]SigSchemeRow, error) {
	st, err := adversary.NewThreshold(n, (n-1)/3)
	if err != nil {
		return nil, err
	}
	var rows []SigSchemeRow
	for _, scheme := range []string{"shoup-rsa", "ed25519-cert"} {
		c, err := newCluster(st, clusterOptions{sched: netsim.NewRandomScheduler(19), forceCert: scheme == "ed25519-cert"})
		if err != nil {
			return nil, err
		}
		var delivered atomic.Int64
		insts := make(map[int]*abc.ABC, n)
		for _, i := range c.alive() {
			i := i
			c.routers[i].DoSync(func() {
				insts[i] = abc.New(abc.Config{
					Router: c.routers[i], Struct: st, Instance: "sig",
					Identity: c.pub.Identity, IDKey: c.secrets[i].Identity,
					Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
					Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
					Deliver: func(int64, []byte) { delivered.Add(1) },
				})
			})
		}
		start := time.Now()
		for k := 0; k < requests; k++ {
			if err := insts[k%n].Broadcast([]byte(fmt.Sprintf("req-%03d", k))); err != nil {
				c.stop()
				return nil, err
			}
			if err := waitCount(func() int { return int(delivered.Load()) }, n*(k+1), defaultTimeout); err != nil {
				c.stop()
				return nil, err
			}
		}
		elapsed := time.Since(start)
		msgs, bytes := c.net.Stats().Total()
		c.stop()
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
