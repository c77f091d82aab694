// Package bench is the experiment harness: it regenerates every table and
// figure of the paper from the implementation (see DESIGN.md §3 for the
// experiment index). Every runner deals its cluster with
// internal/testutil; the cmd/sintra-bench command prints the paper-style
// tables, and the repository-root benchmarks reuse the same runners.
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
	"sintra/internal/group"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// defaultTimeout bounds each measured operation.
const defaultTimeout = 120 * time.Second

// benchGroup is the discrete-log group backend every dealt cluster uses.
// SetGroupName threads the sintra-bench -group flag here; the default
// follows the SINTRA_GROUP environment variable (test256 otherwise), so
// the harness and the test matrix agree. Bench runners execute
// sequentially, so a package variable is safe.
var benchGroup = group.TestDefault()

// SetGroupName selects the group backend for all subsequent experiment
// runs (modp2048 | p256 | test256 | test512).
func SetGroupName(name string) error {
	g, err := group.ByName(name)
	if err != nil {
		return err
	}
	benchGroup = g
	return nil
}

// GroupName reports the backend experiments currently run over — the
// group tag of the printed tables.
func GroupName() string { return benchGroup.Name() }

// waitCount blocks until the counter reaches want, or defaultTimeout
// expires.
func waitCount(counter *atomic.Int64, want int) error {
	deadline := time.Now().Add(defaultTimeout)
	for counter.Load() < int64(want) {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: timeout: %d of %d events", counter.Load(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// startABC creates an atomic-broadcast instance on every live party of c.
// Each delivery at any party adds one to delivered; edit, when not nil,
// adjusts party i's Config before the instance is created.
func startABC(c *testutil.Cluster, instance string, delivered *atomic.Int64, edit func(i int, cfg *abc.Config)) map[int]*abc.ABC {
	insts := make(map[int]*abc.ABC, c.N())
	c.Each(func(i int) {
		cfg := c.ABC(i)
		cfg.Instance = instance
		cfg.Deliver = func(int64, []byte) { delivered.Add(1) }
		if edit != nil {
			edit(i, &cfg)
		}
		insts[i] = abc.New(cfg)
	})
	return insts
}

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
		c, err := testutil.New(st, testutil.Options{Group: benchGroup, Seed: 7})
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
			c.Each(func(i int) {
				var inst *aba.ABA
				cfg := c.ABA(i)
				cfg.Instance = tag
				cfg.Decide = func(bool) {
					// Round() is safe here: Decide runs on the dispatch
					// goroutine.
					if r := int64(inst.Round()); r > rounds.Load() {
						rounds.Store(r)
					}
					decided.Add(1)
				}
				inst = aba.New(cfg)
				insts[i] = inst
			})
			before, _ := c.Net.Stats().Total()
			for i, inst := range insts {
				if err := inst.Start(i%2 == 0); err != nil {
					return nil, err
				}
			}
			if err := waitCount(&decided, n); err != nil {
				return nil, err
			}
			after, _ := c.Net.Stats().Total()
			r := int(rounds.Load())
			totalRounds += r
			sumSquares += r * r
			if r > maxRounds {
				maxRounds = r
			}
			totalMsgs += float64(after - before)
		}
		c.Stop()
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
		c, err := testutil.New(st, testutil.Options{Group: benchGroup, Scheduler: sched})
		if err != nil {
			return res, err
		}
		nodes := make([]*baseline.Node, 0, 4)
		for _, r := range c.Routers {
			nodes = append(nodes, baseline.New(baseline.Config{
				Router: r, Struct: st, Instance: "f1",
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
		c.Stop()
	}

	// Part 2: the randomized stack under an adversary that starves one
	// party's traffic completely. Party 0 is the public first leader of
	// every fourth round's agreement, so the attack also starves that
	// leader: the round costs at most one extra trial, whose leader the
	// coin draws.
	run := func(sched netsim.Scheduler) (int64, error) {
		c, err := testutil.New(st, testutil.Options{Group: benchGroup, Scheduler: sched})
		if err != nil {
			return 0, err
		}
		defer c.Stop()
		var delivered atomic.Int64
		insts := startABC(c, "f1", &delivered, nil)
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
