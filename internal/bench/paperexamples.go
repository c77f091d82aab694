package bench

import (
	"crypto/rand"
	"fmt"
	"sync/atomic"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/group"
	"sintra/internal/sharing"
	"sintra/internal/testutil"
)

// ExampleResult is the outcome of experiments E1 / E2 — the paper's §4.3
// worked examples, checked structurally and exercised live.
type ExampleResult struct {
	Name string
	N    int
	// Structural checks.
	Q3           bool
	MaxTolerated int
	ThresholdMax int // what the best threshold scheme on N servers takes
	// Secret sharing checks (the paper's LSSS construction).
	CorruptibleUnqualified bool // no corruptible set can reconstruct
	SurvivorsQualified     bool // honest remainder always reconstructs
	// Live run: the claimed worst-case corruption is crashed and the
	// atomic broadcast still delivers.
	Crashed       []int
	LiveDelivered int
	LiveLatency   time.Duration
}

// RunExample1 reproduces the paper's Example 1 claims: Q³ holds, secrets
// need ≥3 servers over ≥2 classes, and the system survives the corruption
// of the whole class a (4 of 9 servers).
func RunExample1(ops int) (ExampleResult, error) {
	st := adversary.Example1()
	crashed := []int{0, 1, 2, 3} // all of class a
	return runExample("example1", st, crashed, ops)
}

// RunExample2 reproduces the paper's Example 2 claims: Q³ holds, the
// structure tolerates one full location plus one full operating system
// (7 of 16 servers) where any threshold scheme tolerates 5.
func RunExample2(ops int) (ExampleResult, error) {
	st := adversary.Example2()
	var crashed []int
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for _, p := range []int{adversary.Example2Party(0, i), adversary.Example2Party(i, 0)} {
			if !seen[p] {
				seen[p] = true
				crashed = append(crashed, p)
			}
		}
	}
	return runExample("example2", st, crashed, ops)
}

func runExample(name string, st *adversary.Structure, crashed []int, ops int) (ExampleResult, error) {
	res := ExampleResult{
		Name:         name,
		N:            st.N(),
		Q3:           st.Q3(),
		ThresholdMax: (st.N() - 1) / 3,
		Crashed:      crashed,
	}
	var err error
	if res.MaxTolerated, err = st.MaxTolerated(); err != nil {
		return res, err
	}

	// Secret sharing checks over the example's own LSSS.
	g := group.Test256()
	scheme, err := sharing.ForStructure(g, st)
	if err != nil {
		return res, err
	}
	secret, err := g.RandomScalar(rand.Reader)
	if err != nil {
		return res, err
	}
	shares, err := scheme.Deal(secret, rand.Reader)
	if err != nil {
		return res, err
	}
	values := make(map[int]*group.Scalar, len(shares))
	for _, sh := range shares {
		values[sh.ID] = sh.Value
	}
	maxSets, err := st.MaximalSets()
	if err != nil {
		return res, err
	}
	res.CorruptibleUnqualified = true
	res.SurvivorsQualified = true
	for _, bad := range maxSets {
		if _, err := scheme.Reconstruct(bad, values); err == nil {
			res.CorruptibleUnqualified = false
		}
		honest := bad.Complement(st.N())
		got, err := scheme.Reconstruct(honest, values)
		if err != nil || !got.Equal(secret) {
			res.SurvivorsQualified = false
		}
	}

	// Live run with the claimed corruption crashed.
	c, err := testutil.New(st, testutil.Options{Group: benchGroup, Corrupted: crashed})
	if err != nil {
		return res, err
	}
	defer c.Stop()
	var delivered atomic.Int64
	insts := startABC(c, "ex", &delivered, nil)
	alive := c.Live()
	start := time.Now()
	for op := 0; op < ops; op++ {
		sender := insts[alive[op%len(alive)]]
		if err := sender.Broadcast([]byte(fmt.Sprintf("op-%d", op))); err != nil {
			return res, err
		}
		if err := waitCount(&delivered, (op+1)*len(alive)); err != nil {
			return res, err
		}
	}
	res.LiveDelivered = ops
	res.LiveLatency = time.Since(start) / time.Duration(ops)
	return res, nil
}
