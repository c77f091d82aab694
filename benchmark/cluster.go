package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sintra"
	"sintra/internal/faultsim"
	"sintra/internal/transport"
	"sintra/internal/wire"
)

// chainService is the benchmark's replicated application: a hash chain
// over the ordered requests. Its state digest is a function of the whole
// delivery order, so equal digests on two replicas mean they applied the
// same requests in the same order, and it implements Snapshotter so
// checkpointing and garbage collection run as in production.
type chainService struct {
	mu    sync.Mutex
	count int64
	sum   [32]byte
	// past remembers the digest after every locally applied request, so a
	// replica that ends the run behind can still be checked against the
	// others at the point it reached.
	past map[int64][32]byte
}

func newChainService() *chainService { return &chainService{past: map[int64][32]byte{}} }

func (s *chainService) Apply(_ int64, request []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := sha256.New()
	h.Write(s.sum[:])
	h.Write(request)
	h.Sum(s.sum[:0])
	s.count++
	s.past[s.count] = s.sum
	return append([]byte(nil), s.sum[:16]...)
}

func (s *chainService) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := binary.BigEndian.AppendUint64(nil, uint64(s.count))
	return append(out, s.sum[:]...)
}

func (s *chainService) Restore(snapshot []byte) error {
	if len(snapshot) != 8+len(s.sum) {
		return errors.New("chain service: malformed snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count = int64(binary.BigEndian.Uint64(snapshot))
	copy(s.sum[:], snapshot[8:])
	s.past[s.count] = s.sum
	return nil
}

// state returns the applied count and the chain digest.
func (s *chainService) state() (int64, [32]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count, s.sum
}

// at returns the digest this replica had after count requests, if it
// passed through that state itself.
func (s *chainService) at(count int64) (sum [32]byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sum, ok = s.past[count]
	return sum, ok
}

// onTheWire confines an attack behavior to the messages that leave the
// corrupted party. faultsim applies behaviors to loopback messages too, so
// a tampering party sooner or later garbles a message to itself, stalls in
// that round and — secure-causal mode has no checkpoint to catch up from —
// drops out for good. When that happens is chance (about one 25 s run in
// seven), and afterwards the deployment does 20 % less work per request,
// which made the workload bimodal. An intruder on the party's network
// interface, the corruption model of WithByzantine, never sees loopback
// traffic anyway.
type onTheWire struct{ sintra.ByzantineBehavior }

func (b onTheWire) Apply(ctx *faultsim.Context, m wire.Message) []wire.Message {
	if m.To == ctx.Self {
		return []wire.Message{m}
	}
	return b.ByzantineBehavior.Apply(ctx, m)
}

// cluster is one running deployment plus its client endpoints.
type cluster struct {
	w        *workload
	pub      *sintra.Public
	reg      *sintra.Registry // network traffic; replicas and clients too on netsim or when traced
	services []*chainService  // by server index; nil for crashed servers
	clients  []*sintra.Client
	nodes    []*sintra.Node // by server index; nil for crashed servers
	stop     func()
}

// build deals keys, starts the replicas and connects the clients. observe
// puts a registry on every replica and client (the traced pass); the
// simulated deployment always has one.
func build(w *workload, seed int64, observe bool, dir string) (*cluster, error) {
	st, err := sintra.NewThresholdStructure(w.N, w.T)
	if err != nil {
		return nil, err
	}
	c := &cluster{w: w, reg: sintra.NewRegistry(), services: make([]*chainService, w.N), nodes: make([]*sintra.Node, w.N)}
	if w.TCP {
		err = c.buildTCP(st, observe, dir)
	} else {
		err = c.buildSim(st, seed)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

func (c *cluster) buildSim(st *sintra.Structure, seed int64) error {
	w := c.w
	crashed := map[int]bool{}
	for _, i := range w.Crashed {
		crashed[i] = true
	}
	// The deployment asks for one service per started server, in index
	// order; record which server got which.
	next := 0
	newService := func() sintra.StateMachine {
		for crashed[next] {
			next++
		}
		s := newChainService()
		c.services[next] = s
		next++
		return s
	}
	opts := []sintra.SimOption{
		sintra.WithServiceName(serviceName),
		sintra.WithMode(w.Mode),
		sintra.WithSeed(seed),
		sintra.WithGroupName(groupBackend),
		sintra.WithMaxClients(w.Clients),
		sintra.WithObserver(c.reg),
		sintra.WithCrashed(w.Crashed...),
	}
	for _, i := range w.Byzantine {
		opts = append(opts, sintra.WithByzantine(i, onTheWire{sintra.TamperTail(0.2)}, onTheWire{sintra.Duplicate(1)}))
	}
	d, err := sintra.NewDeployment(st, newService, opts...)
	if err != nil {
		return err
	}
	c.pub = d.Public
	c.stop = d.Stop
	for i := 0; i < w.N; i++ {
		c.nodes[i] = d.Node(i)
	}
	for i := 0; i < w.Clients; i++ {
		cl, err := d.NewClient()
		if err != nil {
			d.Stop()
			return err
		}
		c.clients = append(c.clients, cl)
	}
	return nil
}

func (c *cluster) buildTCP(st *sintra.Structure, observe bool, dir string) (err error) {
	w := c.w
	if len(w.Crashed)+len(w.Byzantine) > 0 {
		return errors.New("benchmark: fault injection needs the simulated network")
	}
	pub, secrets, err := sintra.Deal(sintra.DealOptions{
		Structure: st, GroupName: groupBackend, RSAPrimes: sintra.TestRSAPrimes,
	})
	if err != nil {
		return err
	}
	c.pub = pub
	var nodeReg *sintra.Registry
	if observe {
		nodeReg = c.reg
	}
	var trs []*transport.Transport
	c.stop = func() {
		for _, cl := range c.clients {
			cl.Close()
		}
		for _, n := range c.nodes {
			if n != nil {
				n.Stop()
			}
		}
		for _, tr := range trs {
			tr.Close() // idempotent; covers transports whose node never started
		}
	}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	// Every transport shares one address slice, filled in as the
	// listeners bind; peers are dialed only once replicas start sending.
	addrs := make([]string, w.N)
	for i := 0; i < w.N; i++ {
		tr, err := transport.NewServer(transport.Config{
			Self: i, N: w.N, Addrs: addrs, ListenAddr: "127.0.0.1:0", LinkKeys: secrets[i].LinkKeys,
		})
		if err != nil {
			return err
		}
		tr.SetObserver(c.reg)
		trs = append(trs, tr)
		addrs[i] = tr.Addr()
	}
	for i := 0; i < w.N; i++ {
		c.services[i] = newChainService()
		cfg := sintra.NodeConfig{
			Public: pub, Secret: secrets[i], Transport: trs[i],
			ServiceName: serviceName, Service: c.services[i], Mode: w.Mode,
			Observer: nodeReg,
		}
		if w.WAL {
			cfg.DataDir = filepath.Join(dir, fmt.Sprintf("server%d", i))
		}
		node, err := sintra.NewNode(cfg)
		if err != nil {
			return err
		}
		c.nodes[i] = node
		go node.Run()
	}
	for k := 0; k < w.Clients; k++ {
		tr, err := transport.NewClient(transport.Config{Self: w.N + 1 + k, N: w.N, Addrs: addrs})
		if err != nil {
			return err
		}
		tr.SetObserver(c.reg)
		c.clients = append(c.clients, sintra.NewClientOverTransport(pub, tr, serviceName, w.Mode,
			sintra.WithClientObserver(nodeReg)))
	}
	return nil
}

// walBytes sums the replicas' journal sizes (0 without a WAL).
func (c *cluster) walBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		if n != nil && n.Journal() != nil {
			total += n.Journal().Size()
		}
	}
	return total
}

// invoke runs one request under the request deadline.
func (c *cluster) invoke(client int, body []byte) (sintra.Answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
	defer cancel()
	return c.clients[client%len(c.clients)].InvokeContext(ctx, body)
}

func (c *cluster) verify(a sintra.Answer) error {
	return sintra.VerifyAnswer(c.pub, serviceName, a.ReqID, a.Result, a.Signature)
}

// settle waits (bounded) for the honest replicas to reach one state with
// at least want requests applied, and returns how many requests the
// slowest of them still lacks. A replica may legitimately end the run
// behind: the others never wait for it, and it catches up only through the
// next checkpoint, which an idle service does not produce. What may never
// happen is two honest replicas disagreeing on a state both reached, or
// no honest replica having applied every answered request: those return
// an error.
func (c *cluster) settle(want int64) (lag int64, err error) {
	honest := c.w.honest()
	deadline := time.Now().Add(drainLimit)
	for {
		var most, least int64 = -1, -1
		for _, i := range honest {
			n, _ := c.services[i].state()
			if n > most {
				most = n
			}
			if least < 0 || n < least {
				least = n
			}
		}
		if (most == least && most >= want) || time.Now().After(deadline) {
			if most < want {
				return most - least, fmt.Errorf("no honest replica applied all %d answered requests within %v (most: %d)", want, drainLimit, most)
			}
			for _, i := range honest {
				n, sum := c.services[i].state()
				for _, j := range honest {
					if other, ok := c.services[j].at(n); ok && other != sum {
						return most - least, fmt.Errorf("servers %d and %d disagree on the state after %d requests: %x vs %x", i, j, n, sum[:6], other[:6])
					}
				}
			}
			return most - least, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setUp builds a cluster and drives it to its first verified answer,
// returning the elapsed time: deal + start replicas + connect clients +
// first answer. The data directory is created fresh under tmp.
func setUp(w *workload, seed int64, observe bool, tmp string) (*cluster, string, time.Duration, error) {
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return nil, "", 0, err
	}
	start := time.Now()
	c, err := build(w, seed, observe, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", 0, err
	}
	a, err := c.invoke(0, []byte("setup"))
	if err == nil {
		err = c.verify(a)
	}
	if err != nil {
		c.stop()
		os.RemoveAll(dir)
		return nil, "", 0, fmt.Errorf("first request: %w", err)
	}
	return c, dir, time.Since(start), nil
}
