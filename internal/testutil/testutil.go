// Package testutil deals and runs a simulated cluster: it runs the
// trusted dealer, builds a simulated asynchronous network, and starts one
// router per party. The protocol integration tests and the experiment
// harness (internal/bench) both build their clusters here, and the
// per-protocol helpers (RBC, CBC, ABA, MVBA, ABC, SCABC) are the one place
// outside the protocols and core that fills a protocol's keys.
package testutil

import (
	"fmt"
	"sync"
	"testing"

	"sintra/internal/aba"
	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/deal"
	"sintra/internal/engine"
	"sintra/internal/faultsim"
	"sintra/internal/group"
	"sintra/internal/mvba"
	"sintra/internal/netsim"
	"sintra/internal/obs"
	"sintra/internal/rbc"
	"sintra/internal/scabc"
	"sintra/internal/wire"
)

// Options configures a cluster; the zero value is a full, honest cluster
// under the fair random schedule of seed 1.
type Options struct {
	// Scheduler overrides the default fair random scheduler.
	Scheduler netsim.Scheduler
	// Seed seeds the default scheduler (default 1).
	Seed int64
	// Clients adds client endpoints beyond the n servers.
	Clients int
	// ForceCert uses certificate signatures even for threshold structures.
	ForceCert bool
	// Group overrides the default test group (group.TestDefault(), which
	// honors the SINTRA_GROUP environment variable for the CI backend
	// matrix).
	Group group.Group
	// Corrupted lists parties for which NO router is started: the test
	// drives their endpoints directly (byzantine behaviour) or leaves
	// them silent (crash).
	Corrupted []int
	// Byzantine routes the listed parties' traffic through faultsim
	// attack behaviors: they run the honest code over a lying transport.
	Byzantine map[int][]faultsim.Behavior
	// Observe installs a fresh obs.Registry per router (exposed as
	// Cluster.Regs) so tests can assert on protocol counters.
	Observe bool
	// Registry, when set, observes the network, every faultsim proxy and
	// every router that Observe does not give a registry of its own: one
	// aggregate across the cluster.
	Registry *obs.Registry
}

// Cluster is a dealt, running set of parties over a simulated network.
type Cluster struct {
	Struct  *adversary.Structure
	Net     *netsim.Network
	Routers []*engine.Router // nil for Corrupted parties
	Regs    []*obs.Registry  // per-party registries when Options.Observe
	Pub     *deal.Public
	Secrets []*deal.PartySecret

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New deals keys for the structure and starts a router for every party
// not listed in opts.Corrupted. The caller stops the cluster.
func New(st *adversary.Structure, opts Options) (*Cluster, error) {
	g := opts.Group
	if g == nil {
		g = group.TestDefault()
	}
	pub, secrets, err := deal.New(deal.Options{
		Group:     g,
		Structure: st,
		RSAPrimes: deal.TestPrimes256(),
		ForceCert: opts.ForceCert,
	})
	if err != nil {
		return nil, fmt.Errorf("dealer: %w", err)
	}
	sched := opts.Scheduler
	if sched == nil {
		seed := opts.Seed
		if seed == 0 {
			seed = 1
		}
		sched = netsim.NewRandomScheduler(seed)
	}
	c := &Cluster{
		Struct:  st,
		Net:     netsim.New(st.N(), opts.Clients, sched),
		Pub:     pub,
		Secrets: secrets,
	}
	if opts.Registry != nil {
		c.Net.SetObserver(opts.Registry)
	}
	corrupted := make(map[int]bool, len(opts.Corrupted))
	for _, i := range opts.Corrupted {
		corrupted[i] = true
	}
	c.Routers = make([]*engine.Router, st.N())
	if opts.Observe {
		c.Regs = make([]*obs.Registry, st.N())
	}
	for i := 0; i < st.N(); i++ {
		if corrupted[i] {
			continue
		}
		var tr wire.Transport = c.Net.Endpoint(i)
		if bs := opts.Byzantine[i]; len(bs) > 0 {
			p := faultsim.Wrap(tr, int64(1000003*(i+1)), bs...)
			p.SetObserver(opts.Registry)
			tr = p
		}
		r := engine.NewRouter(tr)
		if opts.Observe {
			c.Regs[i] = obs.NewRegistry()
			r.SetObserver(c.Regs[i])
		} else if opts.Registry != nil {
			r.SetObserver(opts.Registry)
		}
		c.Routers[i] = r
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			r.Run()
		}()
	}
	return c, nil
}

// NewCluster is New for tests: a dealer failure fails the test, and the
// cluster is stopped automatically at test cleanup.
func NewCluster(tb testing.TB, st *adversary.Structure, opts Options) *Cluster {
	tb.Helper()
	c, err := New(st, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Stop)
	return c
}

// N returns the number of parties.
func (c *Cluster) N() int { return c.Struct.N() }

// Live returns the indices of the parties that run a router.
func (c *Cluster) Live() []int {
	var out []int
	for i, r := range c.Routers {
		if r != nil {
			out = append(out, i)
		}
	}
	return out
}

// Each runs fn(i) on each live party's dispatch goroutine, one party
// after another, and returns when all have run.
func (c *Cluster) Each(fn func(i int)) {
	for _, i := range c.Live() {
		c.Routers[i].DoSync(func() { fn(i) })
	}
}

// RBC returns party i's reliable-broadcast Config with its router and
// structure filled in.
func (c *Cluster) RBC(i int) rbc.Config {
	return rbc.Config{Router: c.Routers[i], Struct: c.Struct}
}

// CBC returns party i's consistent-broadcast Config with its router,
// structure and signing key filled in.
func (c *Cluster) CBC(i int) cbc.Config {
	return cbc.Config{Router: c.Routers[i], Struct: c.Struct,
		Scheme: c.Pub.QuorumSig(), Key: c.Secrets[i].SigQuorum}
}

// ABA returns party i's binary-agreement Config with its router,
// structure and coin key filled in.
func (c *Cluster) ABA(i int) aba.Config {
	return aba.Config{Router: c.Routers[i], Struct: c.Struct,
		Coin: c.Pub.Coin, CoinKey: c.Secrets[i].Coin}
}

// MVBA returns party i's multi-valued-agreement Config with its router,
// structure, coin key and signing key filled in.
func (c *Cluster) MVBA(i int) mvba.Config {
	return mvba.Config{Router: c.Routers[i], Struct: c.Struct,
		Coin: c.Pub.Coin, CoinKey: c.Secrets[i].Coin,
		Scheme: c.Pub.QuorumSig(), Key: c.Secrets[i].SigQuorum}
}

// ABC returns party i's atomic-broadcast Config with its router,
// structure, identity key, coin key and signing key filled in.
func (c *Cluster) ABC(i int) abc.Config {
	return abc.Config{Router: c.Routers[i], Struct: c.Struct,
		Identity: c.Pub.Identity, IDKey: c.Secrets[i].Identity,
		Coin: c.Pub.Coin, CoinKey: c.Secrets[i].Coin,
		Scheme: c.Pub.QuorumSig(), Key: c.Secrets[i].SigQuorum}
}

// SCABC returns party i's secure-causal-atomic-broadcast Config with the
// keys of ABC(i) plus its decryption key filled in.
func (c *Cluster) SCABC(i int) scabc.Config {
	return scabc.Config{Router: c.Routers[i], Struct: c.Struct,
		Identity: c.Pub.Identity, IDKey: c.Secrets[i].Identity,
		Coin: c.Pub.Coin, CoinKey: c.Secrets[i].Coin,
		Scheme: c.Pub.QuorumSig(), Key: c.Secrets[i].SigQuorum,
		Enc: c.Pub.Enc, EncKey: c.Secrets[i].Enc}
}

// Stop shuts the network down and waits for every router to exit.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() {
		c.Net.Stop()
		c.wg.Wait()
	})
}
