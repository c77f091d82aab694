package sintra

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sintra/internal/core"
	"sintra/internal/deal"
	"sintra/internal/faultsim"
	"sintra/internal/group"
	"sintra/internal/netsim"
	"sintra/internal/obs"
	"sintra/internal/wire"
)

// simConfig is what the SimOption functions fill in.
type simConfig struct {
	structure   *Structure
	newService  func() StateMachine
	serviceName string // default "service"
	mode        Mode   // default ModeAtomic
	trust       Quorums
	crashed     []int
	byzantine   map[int][]ByzantineBehavior
	scheduler   NetworkScheduler
	seed        int64
	maxClients  int // default 8
	groupName   string
	forceCert   bool
	observer    *Registry
	tracer      Tracer
	dataDir     string
	walCrash    map[int]func(lsn uint64) bool

	Tuning                   // every replica's knobs ...
	tuningFor map[int]Tuning // ... unless the server has its own
}

// SimOption is a functional option for NewDeployment.
type SimOption func(*simConfig)

// WithServiceName tags the replicated service (default "service").
func WithServiceName(name string) SimOption {
	return func(o *simConfig) { o.serviceName = name }
}

// WithMode selects atomic (the default) or secure-causal request
// dissemination.
func WithMode(m Mode) SimOption {
	return func(o *simConfig) { o.mode = m }
}

// WithTrust installs a quorum backend on every replica — e.g. an
// asymmetric backend built with NewAsymmetricTrust, giving each party
// its own fail-prone assumptions. Nil (the default) keeps the symmetric
// backend over the deployment's adversary structure.
func WithTrust(q Quorums) SimOption {
	return func(o *simConfig) { o.trust = q }
}

// WithCrashed leaves the listed servers silent for the whole run,
// modelling crash corruption.
func WithCrashed(servers ...int) SimOption {
	return func(o *simConfig) { o.crashed = append(o.crashed, servers...) }
}

// WithByzantine corrupts one server with the given attack behaviors,
// applied in order to everything it sends. The replica still runs the
// honest protocol code — the behaviors subvert its transport, modelling
// an intruder who controls the party's network interface. Combine with
// further WithByzantine calls for a mixed fleet; keep the corrupted set
// inside the adversary structure for the protocol guarantees to hold.
func WithByzantine(server int, behaviors ...ByzantineBehavior) SimOption {
	return func(o *simConfig) {
		if o.byzantine == nil {
			o.byzantine = make(map[int][]ByzantineBehavior)
		}
		o.byzantine[server] = append(o.byzantine[server], behaviors...)
	}
}

// WithScheduler overrides the network's delivery schedule (default: fair
// random under the seed) — e.g. a PartitionScheduler that isolates parties
// until it heals.
func WithScheduler(s NetworkScheduler) SimOption {
	return func(o *simConfig) { o.scheduler = s }
}

// WithSeed makes the adversarial network scheduler deterministic
// (default 1).
func WithSeed(seed int64) SimOption {
	return func(o *simConfig) { o.seed = seed }
}

// WithMaxClients bounds the number of NewClient calls (default 8).
func WithMaxClients(n int) SimOption {
	return func(o *simConfig) { o.maxClients = n }
}

// WithGroupName selects the group backend: "modp2048"/"test256"/"test512"
// (Z_p*) or "p256" (elliptic). The default follows the SINTRA_GROUP
// environment variable and falls back to "test256" — fast experiments by
// default, and the whole simulation harness re-runs over another backend
// by exporting SINTRA_GROUP=p256.
func WithGroupName(name string) SimOption {
	return func(o *simConfig) { o.groupName = name }
}

// WithForceCert selects certificate signatures even for thresholds.
func WithForceCert() SimOption {
	return func(o *simConfig) { o.forceCert = true }
}

// WithObserver shares reg as the deployment's metrics registry instead
// of creating a fresh one.
func WithObserver(reg *Registry) SimOption {
	return func(o *simConfig) { o.observer = reg }
}

// WithTracer streams structured protocol-stage events from every layer
// of every replica to t.
func WithTracer(t Tracer) SimOption {
	return func(o *simConfig) { o.tracer = t }
}

// WithTuning sets the knobs of every replica (see Tuning for the fields
// and their one convention); the zero Tuning is the default. It replaces
// the deployment-wide Tuning as a whole, so a later WithTuning wins.
func WithTuning(t Tuning) SimOption {
	return func(o *simConfig) { o.Tuning = t }
}

// WithTuningFor gives one server its own Tuning in place of the
// deployment-wide one, for mixed fleets: replicas that differ in local
// knobs (say, with and without the verification pool) are
// protocol-compatible by construction.
func WithTuningFor(server int, t Tuning) SimOption {
	return func(o *simConfig) {
		if o.tuningFor == nil {
			o.tuningFor = make(map[int]Tuning)
		}
		o.tuningFor[server] = t
	}
}

// WithDataDir enables durable write-ahead logging: each replica journals
// its protocol-critical outbound messages under dir/server<i> before
// first transmission, and RestartServerDurable revives a killed replica
// from that journal so it re-sends byte-identical messages instead of
// equivocating. The plain RestartServer stays amnesiac — it wipes the
// server's journal first, modelling a replica that lost its disk.
func WithDataDir(dir string) SimOption {
	return func(o *simConfig) { o.dataDir = dir }
}

// WithWALCrashPoint injects a crash into one server's journal: the first
// append whose LSN fail accepts errors and permanently wedges the
// journal, so the replica falls mute mid-protocol exactly at that record
// — the adversarially timed power failure. Kill it with StopServer and
// revive it with RestartServerDurable, which clears the hook. Requires
// WithDataDir.
func WithWALCrashPoint(server int, fail func(lsn uint64) bool) SimOption {
	return func(o *simConfig) {
		if o.walCrash == nil {
			o.walCrash = make(map[int]func(lsn uint64) bool)
		}
		o.walCrash[server] = fail
	}
}

// SimulatedDeployment runs a full deployment — dealer, adversarially
// scheduled asynchronous network, and one replica per (non-crashed)
// server — inside a single process. It is the quickest way to experience
// the architecture and the substrate of the experiment harness.
type SimulatedDeployment struct {
	// Public is the dealer's public output.
	Public *Public

	cfg     simConfig
	reg     *obs.Registry
	net     *netsim.Network
	secrets []*deal.PartySecret

	mu         sync.Mutex
	nodes      []*core.Node // indexed by server; nil = crashed/stopped
	clientNext int
	clients    []*Client

	stopOnce sync.Once
}

// NewDeployment deals keys, builds the adversarially scheduled network,
// and starts one replica per server that WithCrashed does not list. st is
// the adversary structure and newService creates one state-machine
// replica per server; both are required.
func NewDeployment(st *Structure, newService func() StateMachine, opts ...SimOption) (*SimulatedDeployment, error) {
	if st == nil || newService == nil {
		return nil, errors.New("sintra: a structure and a service factory are required")
	}
	cfg := simConfig{structure: st, newService: newService}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.serviceName == "" {
		cfg.serviceName = "service"
	}
	if cfg.mode == 0 {
		cfg.mode = ModeAtomic
	}
	if cfg.maxClients <= 0 {
		cfg.maxClients = 8
	}
	if cfg.groupName == "" {
		cfg.groupName = group.TestDefaultName()
	}
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	g, err := group.ByName(cfg.groupName)
	if err != nil {
		return nil, err
	}
	pub, secrets, err := deal.New(deal.Options{
		Group:     g,
		Structure: st,
		RSAPrimes: deal.TestPrimes256(),
		ForceCert: cfg.forceCert,
	})
	if err != nil {
		return nil, err
	}

	reg := cfg.observer
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if cfg.tracer != nil {
		reg.SetTracer(cfg.tracer)
	}

	crashed := make(map[int]bool, len(cfg.crashed))
	for _, i := range cfg.crashed {
		crashed[i] = true
	}
	n := st.N()
	sched := cfg.scheduler
	if sched == nil {
		sched = netsim.NewRandomScheduler(cfg.seed)
	}
	d := &SimulatedDeployment{
		Public:     pub,
		cfg:        cfg,
		reg:        reg,
		net:        netsim.New(n, cfg.maxClients, sched),
		secrets:    secrets,
		nodes:      make([]*core.Node, n),
		clientNext: n,
	}
	d.net.SetObserver(reg)
	for i := 0; i < n; i++ {
		if crashed[i] {
			continue
		}
		if err := d.startNode(i); err != nil {
			d.Stop()
			return nil, err
		}
	}
	return d, nil
}

// startNode builds and runs the replica of server i (caller must ensure
// the slot is free).
func (d *SimulatedDeployment) startNode(i int) error {
	var tr wire.Transport = d.net.Endpoint(i)
	if bs := d.cfg.byzantine[i]; len(bs) > 0 {
		// Each corrupted party draws from its own seeded source so a
		// run is reproducible regardless of goroutine interleaving.
		p := faultsim.Wrap(tr, d.cfg.seed*1000003+int64(i), bs...)
		p.SetObserver(d.reg)
		tr = p
	}
	cfg := core.NodeConfig{
		Public:      d.Public,
		Secret:      d.secrets[i],
		Transport:   tr,
		ServiceName: d.cfg.serviceName,
		Service:     d.cfg.newService(),
		Mode:        d.cfg.mode,
		Trust:       d.cfg.trust,
		Observer:    d.reg,
		Tuning:      d.cfg.Tuning,
	}
	if t, ok := d.cfg.tuningFor[i]; ok {
		cfg.Tuning = t
	}
	if d.cfg.dataDir != "" {
		cfg.DataDir = d.serverDir(i)
		d.mu.Lock()
		cfg.WALFailAppend = d.cfg.walCrash[i]
		d.mu.Unlock()
	}
	node, err := core.NewNode(cfg)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.nodes[i] = node
	d.mu.Unlock()
	go node.Run()
	return nil
}

// Node returns the running replica of server i, or nil when the server
// is crashed or stopped (harness/progress inspection).
func (d *SimulatedDeployment) Node(i int) *core.Node {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.nodes) {
		return nil
	}
	return d.nodes[i]
}

// StopServer kills one replica mid-run: its endpoint closes, its
// dispatch loop exits — dropping, not flushing, whatever its outbox still
// held back for the journal — and the rest of the cluster keeps operating
// (tolerating it as a crash fault). Restart it with RestartServer.
func (d *SimulatedDeployment) StopServer(i int) {
	d.mu.Lock()
	node := (*core.Node)(nil)
	if i >= 0 && i < len(d.nodes) {
		node, d.nodes[i] = d.nodes[i], nil
	}
	d.mu.Unlock()
	if node != nil {
		node.Stop()
	}
}

// RestartServer revives a killed (or never-started) replica with a fresh
// service instance: the endpoint reopens and the new node joins with
// empty state, recovering the service via checkpoint catch-up — the
// crash-recovery scenario the checkpoint subsystem exists for. With a
// data directory configured the server's journal is wiped first: this is
// the amnesiac restart (a replica that lost its disk); use
// RestartServerDurable for amnesia-free recovery.
func (d *SimulatedDeployment) RestartServer(i int) error {
	if i < 0 || i >= d.cfg.structure.N() {
		return fmt.Errorf("sintra: no server %d", i)
	}
	if d.Node(i) != nil {
		return fmt.Errorf("sintra: server %d is still running", i)
	}
	if d.cfg.dataDir != "" {
		if err := os.RemoveAll(d.serverDir(i)); err != nil {
			return err
		}
	}
	d.net.Reopen(i)
	return d.startNode(i)
}

// RestartServerDurable revives a killed replica from its write-ahead
// log: the journal replays, recovered commitments (votes, echoes, signed
// proposals) are re-sent byte-identically instead of being re-decided,
// the delivery frontier is restored, and the replica then catches the
// cluster up via checkpoint fetch. Any WithWALCrashPoint hook on the
// server is cleared — the crash already happened. Requires WithDataDir.
func (d *SimulatedDeployment) RestartServerDurable(i int) error {
	if d.cfg.dataDir == "" {
		return errors.New("sintra: RestartServerDurable requires WithDataDir")
	}
	if i < 0 || i >= d.cfg.structure.N() {
		return fmt.Errorf("sintra: no server %d", i)
	}
	if d.Node(i) != nil {
		return fmt.Errorf("sintra: server %d is still running", i)
	}
	d.mu.Lock()
	delete(d.cfg.walCrash, i)
	d.mu.Unlock()
	d.net.Reopen(i)
	return d.startNode(i)
}

// serverDir is server i's private slice of the data directory.
func (d *SimulatedDeployment) serverDir(i int) string {
	return filepath.Join(d.cfg.dataDir, fmt.Sprintf("server%d", i))
}

// NewClient attaches a client endpoint to the simulated network.
func (d *SimulatedDeployment) NewClient() (*Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clientNext >= d.cfg.structure.N()+d.cfg.maxClients {
		return nil, fmt.Errorf("sintra: more than %d clients", d.cfg.maxClients)
	}
	ep := d.net.Endpoint(d.clientNext)
	d.clientNext++
	c := core.NewClient(d.Public, ep, d.cfg.serviceName, d.cfg.mode,
		core.WithObserver(d.reg))
	d.clients = append(d.clients, c)
	return c, nil
}

// Observer returns the deployment's shared metrics registry: the
// network, every replica (router and broadcast stack included), and
// every client report into it.
func (d *SimulatedDeployment) Observer() *Registry { return d.reg }

// Metrics snapshots every metric of the deployment — traffic per
// protocol, dispatch and end-to-end latency distributions, instance
// lifecycle counts, drops; network traffic per protocol layer is under
// "net.msgs." and "net.bytes.".
func (d *SimulatedDeployment) Metrics() MetricsSnapshot { return d.reg.Snapshot() }

// Stop shuts the deployment down.
func (d *SimulatedDeployment) Stop() {
	d.stopOnce.Do(func() {
		d.net.Stop()
		d.mu.Lock()
		clients := d.clients
		d.mu.Unlock()
		for _, c := range clients {
			c.Close()
		}
		d.mu.Lock()
		nodes := append([]*core.Node(nil), d.nodes...)
		d.mu.Unlock()
		for _, n := range nodes {
			if n != nil {
				n.Stop()
			}
		}
	})
}
