// Package bench is the experiment harness: it regenerates every table and
// figure of the paper from the implementation (see DESIGN.md §3 for the
// experiment index). The cmd/sintra-bench command prints the paper-style
// tables; the repository-root benchmarks reuse the same runners.
package bench

import (
	"fmt"
	"sync"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/deal"
	"sintra/internal/engine"
	"sintra/internal/faultsim"
	"sintra/internal/group"
	"sintra/internal/netsim"
	"sintra/internal/obs"
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

// cluster is a dealt set of parties over the simulated network (the
// non-testing twin of internal/testutil).
type cluster struct {
	st      *adversary.Structure
	net     *netsim.Network
	routers []*engine.Router
	pub     *deal.Public
	secrets []*deal.PartySecret
	// reg aggregates metrics across every party: per-layer latency
	// histograms for the report's percentile columns.
	reg *obs.Registry

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// clusterOptions are the knobs of one dealt cluster; the zero value is a
// full, honest cluster under the fair random schedule of seed 1.
type clusterOptions struct {
	// sched overrides the network's delivery schedule.
	sched netsim.Scheduler
	// crashed parties are never started.
	crashed []int
	// forceCert selects the certificate signature scheme even for
	// threshold structures (ablations).
	forceCert bool
	// byzantine routes the listed parties' traffic through faultsim attack
	// behaviors — active corruption instead of the silence of a crash.
	byzantine map[int][]faultsim.Behavior
	// verifyBatch is the routers' verify-coalescing cap: 0 keeps the
	// engine default, negative disables batch verification.
	verifyBatch int
	// verifyWorkers sizes the routers' verify pools (0 keeps the engine
	// default).
	verifyWorkers int
}

// newCluster deals keys and starts routers for every non-crashed party.
func newCluster(st *adversary.Structure, o clusterOptions) (*cluster, error) {
	pub, secrets, err := deal.New(deal.Options{
		Group:     benchGroup,
		Structure: st,
		RSAPrimes: deal.TestPrimes256(),
		ForceCert: o.forceCert,
	})
	if err != nil {
		return nil, err
	}
	sched := o.sched
	if sched == nil {
		sched = netsim.NewRandomScheduler(1)
	}
	c := &cluster{
		st:      st,
		net:     netsim.New(st.N(), 2, sched),
		pub:     pub,
		secrets: secrets,
		reg:     obs.NewRegistry(),
	}
	c.net.SetObserver(c.reg)
	down := make(map[int]bool, len(o.crashed))
	for _, i := range o.crashed {
		down[i] = true
	}
	c.routers = make([]*engine.Router, st.N())
	for i := 0; i < st.N(); i++ {
		if down[i] {
			continue
		}
		var tr wire.Transport = c.net.Endpoint(i)
		if bs := o.byzantine[i]; len(bs) > 0 {
			p := faultsim.Wrap(tr, int64(1000003*(i+1)), bs...)
			p.SetObserver(c.reg)
			tr = p
		}
		r := engine.NewRouter(tr)
		r.SetObserver(c.reg)
		r.SetVerifyBatch(o.verifyBatch)
		if o.verifyWorkers != 0 {
			r.SetVerifyWorkers(o.verifyWorkers)
		}
		c.routers[i] = r
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			r.Run()
		}()
	}
	return c, nil
}

// alive returns the indices of running parties.
func (c *cluster) alive() []int {
	var out []int
	for i, r := range c.routers {
		if r != nil {
			out = append(out, i)
		}
	}
	return out
}

func (c *cluster) stop() {
	c.stopOnce.Do(func() {
		c.net.Stop()
		c.wg.Wait()
	})
}

// waitCount blocks until the counter function (called under no lock; it
// must be thread safe) reaches want, or the timeout expires.
func waitCount(counter func() int, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for counter() < want {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: timeout: %d of %d events", counter(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}
