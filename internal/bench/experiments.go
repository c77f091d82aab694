package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"sintra/internal/aba"
	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/baseline"
	"sintra/internal/netsim"
	"sintra/internal/wire"
)

// ABARow is one measurement of experiment A8: binary-agreement round
// counts at one system size (paper claim: expected CONSTANT rounds,
// independent of n).
type ABARow struct {
	N          int
	T          int
	Trials     int
	MeanRounds float64
	SERounds   float64 // standard error of MeanRounds
	MaxRounds  int
	MeanMsgs   float64
}

// RunABARounds measures the rounds binary agreement needs with split
// inputs (the hard case) over `trials` independent agreements per size.
func RunABARounds(ns []int, trials int) ([]ABARow, error) {
	var rows []ABARow
	for _, n := range ns {
		t := (n - 1) / 3
		st, err := adversary.NewThreshold(n, t)
		if err != nil {
			return nil, err
		}
		c, err := newCluster(st, clusterOptions{sched: netsim.NewRandomScheduler(7)})
		if err != nil {
			return nil, err
		}
		totalRounds, sumSquares, maxRounds := 0, 0, 0
		var totalMsgs float64
		for trial := 0; trial < trials; trial++ {
			tag := fmt.Sprintf("trial%d", trial)
			var decided atomic.Int64
			var rounds atomic.Int64
			insts := make(map[int]*aba.ABA, n)
			for _, i := range c.alive() {
				i := i
				c.routers[i].DoSync(func() {
					var inst *aba.ABA
					inst = aba.New(aba.Config{
						Router: c.routers[i], Struct: st, Instance: tag,
						Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
						Decide: func(bool) {
							// Round() is safe here: Decide runs on the
							// dispatch goroutine.
							if r := int64(inst.Round()); r > rounds.Load() {
								rounds.Store(r)
							}
							decided.Add(1)
						},
					})
					insts[i] = inst
				})
			}
			before, _ := c.net.Stats().Total()
			for i, inst := range insts {
				if err := inst.Start(i%2 == 0); err != nil {
					return nil, err
				}
			}
			if err := waitCount(func() int { return int(decided.Load()) }, n, defaultTimeout); err != nil {
				return nil, err
			}
			after, _ := c.net.Stats().Total()
			r := int(rounds.Load())
			totalRounds += r
			sumSquares += r * r
			if r > maxRounds {
				maxRounds = r
			}
			totalMsgs += float64(after - before)
		}
		c.stop()
		mean := float64(totalRounds) / float64(trials)
		variance := (float64(sumSquares) - float64(trials)*mean*mean) / math.Max(1, float64(trials-1))
		rows = append(rows, ABARow{
			N: n, T: t, Trials: trials,
			MeanRounds: mean,
			SERounds:   math.Sqrt(variance / float64(trials)),
			MaxRounds:  maxRounds,
			MeanMsgs:   totalMsgs / float64(trials),
		})
	}
	return rows, nil
}

// F1Result is experiment F1 (Figure 1): the liveness of the
// failure-detector baseline versus the randomized stack under their
// respective worst-case network adversaries.
type F1Result struct {
	Window time.Duration
	// Baseline under the leader-stalking scheduler.
	BaselineDelivered int64
	BaselineViews     int64
	// Our atomic broadcast under a scheduler that starves one party.
	OursDelivered int64
	// Our atomic broadcast under the fair scheduler, for reference.
	OursFairDelivered int64
}

// RunF1 runs the liveness comparison for the given observation window.
func RunF1(window time.Duration) (F1Result, error) {
	res := F1Result{Window: window}
	st := adversary.MustThreshold(4, 1)

	// Part 1: the deterministic baseline under the paper's §2.2 attack.
	{
		sched := baseline.NewLeaderStalker(st, netsim.NewRandomScheduler(3))
		c, err := newCluster(st, clusterOptions{sched: sched})
		if err != nil {
			return res, err
		}
		nodes := make([]*baseline.Node, 0, 4)
		for _, i := range c.alive() {
			nodes = append(nodes, baseline.New(baseline.Config{
				Router: c.routers[i], Struct: st, Instance: "f1",
				Timeout: 20 * time.Millisecond,
			}))
		}
		_ = nodes[1].Submit([]byte("will it ever arrive"))
		time.Sleep(window)
		for _, nd := range nodes {
			d, v := nd.Stats()
			res.BaselineDelivered += d
			if v > res.BaselineViews {
				res.BaselineViews = v
			}
		}
		for _, nd := range nodes {
			nd.Stop()
		}
		c.stop()
	}

	// Part 2: the randomized stack under an adversary that starves one
	// party's traffic completely. Party 0 is the public first leader of
	// every fourth round's agreement, so the attack also starves that
	// leader: the round costs at most one extra trial, whose leader the
	// coin draws.
	run := func(sched netsim.Scheduler) (int64, error) {
		c, err := newCluster(st, clusterOptions{sched: sched})
		if err != nil {
			return 0, err
		}
		defer c.stop()
		var delivered atomic.Int64
		insts := make(map[int]*abc.ABC, 4)
		for _, i := range c.alive() {
			i := i
			c.routers[i].DoSync(func() {
				insts[i] = abc.New(abc.Config{
					Router: c.routers[i], Struct: st, Instance: "f1",
					Identity: c.pub.Identity, IDKey: c.secrets[i].Identity,
					Coin: c.pub.Coin, CoinKey: c.secrets[i].Coin,
					Scheme: c.pub.QuorumSig(), Key: c.secrets[i].SigQuorum,
					Deliver: func(int64, []byte) { delivered.Add(1) },
				})
			})
		}
		deadline := time.Now().Add(window)
		for k := 0; time.Now().Before(deadline); k++ {
			if err := insts[1].Broadcast([]byte(fmt.Sprintf("req-%d", k))); err != nil {
				return 0, err
			}
			target := int64(4 * (k + 1))
			for delivered.Load() < target && time.Now().Before(deadline) {
				time.Sleep(200 * time.Microsecond)
			}
		}
		return delivered.Load() / 4, nil
	}
	var err error
	starver := netsim.NewDelayScheduler(5, func(m *wire.Message) bool { return m.To == 0 || m.From == 0 })
	if res.OursDelivered, err = run(starver); err != nil {
		return res, err
	}
	if res.OursFairDelivered, err = run(netsim.NewRandomScheduler(9)); err != nil {
		return res, err
	}
	return res, nil
}
