package testutil_test

import (
	"slices"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/faultsim"
	"sintra/internal/obs"
	"sintra/internal/testutil"
)

// TestNew covers what the cluster builder promises its callers: corrupted
// parties get no router, Byzantine parties share the aggregate registry
// while the honest ones still order, and a dealer failure is an error.
func TestNew(t *testing.T) {
	reg := obs.NewRegistry()
	for _, tc := range []struct {
		name  string
		st    *adversary.Structure
		opts  testutil.Options
		check func(t *testing.T, c *testutil.Cluster)
	}{{
		name: "corrupted",
		st:   adversary.MustThreshold(4, 1),
		opts: testutil.Options{Corrupted: []int{2}},
		check: func(t *testing.T, c *testutil.Cluster) {
			if c.Routers[2] != nil {
				t.Error("corrupted party 2 has a router")
			}
			if got := c.Live(); !slices.Equal(got, []int{0, 1, 3}) {
				t.Errorf("Live() = %v, want [0 1 3]", got)
			}
		},
	}, {
		name: "byzantine",
		st:   adversary.MustThreshold(4, 1),
		opts: testutil.Options{Byzantine: map[int][]faultsim.Behavior{3: {faultsim.Equivocate()}}, Registry: reg},
		check: func(t *testing.T, c *testutil.Cluster) {
			delivered := make(chan int, 4*c.N())
			insts := make(map[int]*abc.ABC, c.N())
			c.Each(func(i int) {
				cfg := c.ABC(i)
				cfg.Instance = "byz"
				cfg.Deliver = func(int64, []byte) { delivered <- i }
				insts[i] = abc.New(cfg)
			})
			if err := insts[0].Broadcast([]byte("through a lying party")); err != nil {
				t.Fatal(err)
			}
			got := map[int]bool{}
			deadline := time.After(60 * time.Second)
			for len(got) < 3 {
				select {
				case i := <-delivered:
					if i != 3 {
						got[i] = true
					}
				case <-deadline:
					t.Fatalf("honest parties delivered: %v, want 0, 1 and 2", got)
				}
			}
			// Party 3 acts on what it sends to odd parties, which the
			// honest three need not wait for: its first such message may
			// still be on its way.
			snap := reg.Snapshot()
			for ; snap.Counter("faultsim.injected")+snap.Counter("faultsim.actions.equivocate") == 0; snap = reg.Snapshot() {
				select {
				case <-deadline:
					t.Fatal("the shared registry saw no faultsim action")
				case <-time.After(time.Millisecond):
				}
			}
			if len(snap.CountersWithPrefix("net.msgs")) == 0 {
				t.Error("the shared registry saw no network traffic")
			}
		},
	}, {
		name: "dealer failure",
		st:   adversary.MustThreshold(3, 1), // not Q3
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := testutil.New(tc.st, tc.opts)
			if tc.check == nil {
				if err == nil {
					c.Stop()
					t.Fatal("New dealt a structure the dealer must refuse")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			tc.check(t, c)
		})
	}
}
