package sintra

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sintra/internal/core"
	"sintra/internal/deal"
	"sintra/internal/faultsim"
	"sintra/internal/group"
	"sintra/internal/netsim"
	"sintra/internal/obs"
	"sintra/internal/wire"
)

// SimOptions configures an in-process simulated deployment. New code
// should prefer NewDeployment with functional options; this struct form
// remains fully supported.
type SimOptions struct {
	// Structure is the adversary structure (required).
	Structure *Structure
	// ServiceName tags the replicated service (default "service").
	ServiceName string
	// NewService creates one state-machine replica per server (required).
	NewService func() StateMachine
	// Mode selects the dissemination protocol (default ModeAtomic).
	Mode Mode
	// Trust optionally overrides every replica's quorum backend; nil
	// wraps Structure in the symmetric backend (the paper's shared
	// trust model). See core.NodeConfig.Trust and WithTrust.
	Trust Quorums
	// Crashed lists servers that are never started — they stay silent for
	// the whole run, modelling crash corruption.
	Crashed []int
	// Byzantine maps a server index to the attack behaviors applied to
	// its outbound traffic: the party runs the honest code, but its
	// transport lies for it. See WithByzantine.
	Byzantine map[int][]ByzantineBehavior
	// Scheduler overrides the network's delivery order (default: fair
	// random under Seed). Use NewPartitionScheduler or NewDelayScheduler
	// for targeted adversarial schedules.
	Scheduler NetworkScheduler
	// Seed makes the adversarial network scheduler deterministic.
	Seed int64
	// MaxClients bounds the number of NewClient calls (default 8).
	MaxClients int
	// GroupName selects the group backend: "modp2048"/"test256"/"test512"
	// (Z_p*) or "p256" (elliptic). Empty follows the SINTRA_GROUP
	// environment variable and falls back to "test256" — fast experiments
	// by default, and the whole simulation harness re-runs over another
	// backend by exporting SINTRA_GROUP=p256.
	GroupName string
	// ForceCert selects certificate signatures even for thresholds.
	ForceCert bool
	// Observer supplies the metrics registry shared by the network, every
	// replica, and every client. Nil creates a fresh one (the simulated
	// deployment always observes itself; read it via Metrics).
	Observer *Registry
	// Tracer optionally receives structured protocol-stage events from
	// every layer of every replica.
	Tracer Tracer
	// VerifyWorkers sizes each replica's parallel message-verification
	// pool: 0 keeps the engine default (GOMAXPROCS), negative disables
	// the pool. Per-server overrides in VerifyWorkersFor win.
	VerifyWorkers int
	// VerifyWorkersFor overrides VerifyWorkers per server index,
	// allowing mixed fleets (some replicas pipelined, some single-stage).
	VerifyWorkersFor map[int]int
	// VerifyBatch caps how many queued same-kind messages one verify
	// worker coalesces into a single batch-verification call on every
	// replica: 0 keeps the engine default, negative disables coalescing
	// (per-share verification), positive sets the cap.
	VerifyBatch int
	// BatchSize sets every replica's atomic broadcast batch floor
	// (0 keeps the protocol default).
	BatchSize int
	// MaxBatchSize caps the adaptive batch growth; see
	// core.NodeConfig.MaxBatchSize.
	MaxBatchSize int
	// CheckpointInterval sets every replica's checkpoint/GC period in
	// delivered payloads: 0 keeps the core default, negative disables
	// checkpointing. Effective in ModeAtomic when the service implements
	// Snapshotter; see core.NodeConfig.CheckpointInterval.
	CheckpointInterval int64
	// RetentionWindow bounds every replica's delivered-digest dedup
	// history; see core.NodeConfig.RetentionWindow.
	RetentionWindow int64
	// CodedThreshold switches ordering-layer proposals whose batches
	// reach this many bytes to coded dissemination (digest header plus
	// an erasure-coded reliable broadcast): 0 keeps the protocol default
	// (4 KiB), negative disables the coded path. See
	// core.NodeConfig.CodedThreshold.
	CodedThreshold int
	// ChunkSize splits oversized client payloads into deterministic
	// frames reassembled after ordering: 0 keeps the protocol default
	// (64 KiB), negative disables chunking. Atomic mode only. See
	// core.NodeConfig.ChunkSize.
	ChunkSize int
	// DataDir, when non-empty, gives every replica a durable write-ahead
	// log under DataDir/server<i>: protocol-critical messages are
	// journaled before first transmission, and RestartServerDurable
	// revives a killed replica from its journal (amnesia-free recovery).
	// Empty keeps replicas memoryless. See core.NodeConfig.DataDir.
	DataDir string
	// WALSyncInterval disables every journal's fsync when negative (fast
	// tests on throwaway data — crash injection still sees the written
	// bytes); zero and every positive value mean fsync on.
	WALSyncInterval time.Duration
	// WALCrash maps a server index to a crash-injection hook handed to
	// its journal (see core.NodeConfig.WALFailAppend): the first append
	// it accepts wedges the journal, muting the replica mid-protocol.
	// RestartServerDurable clears the hook so the revived replica runs
	// clean. See WithWALCrashPoint.
	WALCrash map[int]func(lsn uint64) bool
}

// SimOption is a functional option for NewDeployment.
type SimOption func(*SimOptions)

// WithServiceName tags the replicated service.
func WithServiceName(name string) SimOption {
	return func(o *SimOptions) { o.ServiceName = name }
}

// WithMode selects atomic or secure-causal request dissemination.
func WithMode(m Mode) SimOption {
	return func(o *SimOptions) { o.Mode = m }
}

// WithTrust installs a quorum backend on every replica — e.g. an
// asymmetric backend built with NewAsymmetricTrust, giving each party
// its own fail-prone assumptions. Nil (the default) keeps the symmetric
// backend over the deployment's adversary structure.
func WithTrust(q Quorums) SimOption {
	return func(o *SimOptions) { o.Trust = q }
}

// WithCrashed leaves the listed servers silent for the whole run,
// modelling crash corruption.
func WithCrashed(servers ...int) SimOption {
	return func(o *SimOptions) { o.Crashed = append(o.Crashed, servers...) }
}

// WithByzantine corrupts one server with the given attack behaviors,
// applied in order to everything it sends. The replica still runs the
// honest protocol code — the behaviors subvert its transport, modelling
// an intruder who controls the party's network interface. Combine with
// further WithByzantine calls for a mixed fleet; keep the corrupted set
// inside the adversary structure for the protocol guarantees to hold.
func WithByzantine(server int, behaviors ...ByzantineBehavior) SimOption {
	return func(o *SimOptions) {
		if o.Byzantine == nil {
			o.Byzantine = make(map[int][]ByzantineBehavior)
		}
		o.Byzantine[server] = append(o.Byzantine[server], behaviors...)
	}
}

// WithScheduler overrides the network's delivery schedule — e.g. a
// PartitionScheduler that isolates parties until it heals.
func WithScheduler(s NetworkScheduler) SimOption {
	return func(o *SimOptions) { o.Scheduler = s }
}

// WithSeed makes the adversarial network scheduler deterministic.
func WithSeed(seed int64) SimOption {
	return func(o *SimOptions) { o.Seed = seed }
}

// WithMaxClients bounds the number of NewClient calls.
func WithMaxClients(n int) SimOption {
	return func(o *SimOptions) { o.MaxClients = n }
}

// WithGroupName selects the discrete-log group by name.
func WithGroupName(name string) SimOption {
	return func(o *SimOptions) { o.GroupName = name }
}

// WithForceCert selects certificate signatures even for thresholds.
func WithForceCert() SimOption {
	return func(o *SimOptions) { o.ForceCert = true }
}

// WithObserver shares reg as the deployment's metrics registry instead
// of creating a fresh one.
func WithObserver(reg *Registry) SimOption {
	return func(o *SimOptions) { o.Observer = reg }
}

// WithTracer streams structured protocol-stage events from every layer
// of every replica to t.
func WithTracer(t Tracer) SimOption {
	return func(o *SimOptions) { o.Tracer = t }
}

// WithVerifyWorkers sizes every replica's parallel message-verification
// pool: 0 keeps the engine default (GOMAXPROCS), negative disables the
// pool so all verification runs inline on the dispatch goroutine.
func WithVerifyWorkers(n int) SimOption {
	return func(o *SimOptions) { o.VerifyWorkers = n }
}

// WithVerifyWorkersFor overrides the verification pool size for one
// server, allowing mixed fleets of pipelined and single-stage replicas
// (the two are protocol-compatible by construction).
func WithVerifyWorkersFor(server, n int) SimOption {
	return func(o *SimOptions) {
		if o.VerifyWorkersFor == nil {
			o.VerifyWorkersFor = make(map[int]int)
		}
		o.VerifyWorkersFor[server] = n
	}
}

// WithVerifyBatch caps batch-verification coalescing on every replica:
// 0 keeps the engine default, negative disables coalescing so every
// share proof is checked individually, positive sets the cap.
func WithVerifyBatch(n int) SimOption {
	return func(o *SimOptions) { o.VerifyBatch = n }
}

// WithBatchSize sets the atomic broadcast batch floor and the adaptive
// ceiling (maxBatch <= batch pins the batch size, disabling adaptation;
// maxBatch 0 defaults to 8x the floor).
func WithBatchSize(batch, maxBatch int) SimOption {
	return func(o *SimOptions) {
		o.BatchSize = batch
		o.MaxBatchSize = maxBatch
	}
}

// WithCheckpointInterval sets the checkpoint/GC period in delivered
// payloads: every interval deliveries the replicas threshold-sign a
// digest of the service state, and the resulting stable checkpoint
// garbage-collects ordering history, router tombstones, and request
// bookkeeping — and is the anchor a killed-and-restarted replica catches
// up from. 0 keeps the core default; negative disables checkpointing
// (memory then relies on the deterministic retention window alone).
// Atomic mode with a Snapshotter service only.
func WithCheckpointInterval(interval int64) SimOption {
	return func(o *SimOptions) { o.CheckpointInterval = interval }
}

// WithRetentionWindow bounds the delivered-digest dedup history of every
// replica's ordering layer; see core.NodeConfig.RetentionWindow.
func WithRetentionWindow(window int64) SimOption {
	return func(o *SimOptions) { o.RetentionWindow = window }
}

// WithCodedThreshold sets the batch size (in bytes) above which every
// replica's ordering layer disseminates proposals as digest headers plus
// one erasure-coded reliable broadcast instead of embedding the payloads
// in the agreement value: 0 keeps the protocol default (4 KiB), negative
// disables the coded path (always-inline proposals).
func WithCodedThreshold(bytes int) SimOption {
	return func(o *SimOptions) { o.CodedThreshold = bytes }
}

// WithChunkSize sets the payload size (in bytes) above which client
// submissions are split into deterministic frames reassembled after
// ordering: 0 keeps the protocol default (64 KiB), negative disables
// chunking. Atomic mode only.
func WithChunkSize(bytes int) SimOption {
	return func(o *SimOptions) { o.ChunkSize = bytes }
}

// WithDataDir enables durable write-ahead logging: each replica journals
// its protocol-critical outbound messages under dir/server<i> before
// first transmission, and RestartServerDurable revives a killed replica
// from that journal so it re-sends byte-identical messages instead of
// equivocating. The plain RestartServer stays amnesiac — it wipes the
// server's journal first, modelling a replica that lost its disk.
func WithDataDir(dir string) SimOption {
	return func(o *SimOptions) { o.DataDir = dir }
}

// WithWALSyncInterval disables every journal's fsync when d is negative
// (fast tests); zero and every positive value mean fsync on.
func WithWALSyncInterval(d time.Duration) SimOption {
	return func(o *SimOptions) { o.WALSyncInterval = d }
}

// WithWALCrashPoint injects a crash into one server's journal: the first
// append whose LSN fail accepts errors and permanently wedges the
// journal, so the replica falls mute mid-protocol exactly at that record
// — the adversarially timed power failure. Kill it with StopServer and
// revive it with RestartServerDurable, which clears the hook. Requires
// WithDataDir.
func WithWALCrashPoint(server int, fail func(lsn uint64) bool) SimOption {
	return func(o *SimOptions) {
		if o.WALCrash == nil {
			o.WALCrash = make(map[int]func(lsn uint64) bool)
		}
		o.WALCrash[server] = fail
	}
}

// SimulatedDeployment runs a full deployment — dealer, adversarially
// scheduled asynchronous network, and one replica per (non-crashed)
// server — inside a single process. It is the quickest way to experience
// the architecture and the substrate of the experiment harness.
type SimulatedDeployment struct {
	// Public is the dealer's public output.
	Public *Public

	opts    SimOptions
	reg     *obs.Registry
	net     *netsim.Network
	secrets []*deal.PartySecret
	seed    int64

	mu         sync.Mutex
	nodes      []*core.Node // indexed by server; nil = crashed/stopped
	clientNext int
	clients    []*Client

	stopOnce sync.Once
}

// NewDeployment deals keys, builds the adversarially scheduled network,
// and starts one replica per server. It is the primary constructor;
// NewSimulatedDeployment accepts the same configuration as a struct.
func NewDeployment(st *Structure, newService func() StateMachine, opts ...SimOption) (*SimulatedDeployment, error) {
	o := SimOptions{Structure: st, NewService: newService}
	for _, opt := range opts {
		opt(&o)
	}
	return NewSimulatedDeployment(o)
}

// NewSimulatedDeployment deals keys, builds the network, and starts the
// replicas.
func NewSimulatedDeployment(opts SimOptions) (*SimulatedDeployment, error) {
	if opts.Structure == nil || opts.NewService == nil {
		return nil, errors.New("sintra: Structure and NewService are required")
	}
	if opts.ServiceName == "" {
		opts.ServiceName = "service"
	}
	if opts.Mode == 0 {
		opts.Mode = ModeAtomic
	}
	if opts.MaxClients <= 0 {
		opts.MaxClients = 8
	}
	if opts.GroupName == "" {
		opts.GroupName = group.TestDefaultName()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	g, err := group.ByName(opts.GroupName)
	if err != nil {
		return nil, err
	}
	pub, secrets, err := deal.New(deal.Options{
		Group:     g,
		Structure: opts.Structure,
		RSAPrimes: deal.TestPrimes256(),
		ForceCert: opts.ForceCert,
	})
	if err != nil {
		return nil, err
	}

	reg := opts.Observer
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if opts.Tracer != nil {
		reg.SetTracer(opts.Tracer)
	}

	crashed := make(map[int]bool, len(opts.Crashed))
	for _, i := range opts.Crashed {
		crashed[i] = true
	}
	n := opts.Structure.N()
	sched := opts.Scheduler
	if sched == nil {
		sched = netsim.NewRandomScheduler(seed)
	}
	d := &SimulatedDeployment{
		Public:     pub,
		opts:       opts,
		reg:        reg,
		net:        netsim.New(n, opts.MaxClients, sched),
		secrets:    secrets,
		seed:       seed,
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
	if bs := d.opts.Byzantine[i]; len(bs) > 0 {
		// Each corrupted party draws from its own seeded source so a
		// run is reproducible regardless of goroutine interleaving.
		p := faultsim.Wrap(tr, d.seed*1000003+int64(i), bs...)
		p.SetObserver(d.reg)
		tr = p
	}
	workers := d.opts.VerifyWorkers
	if w, ok := d.opts.VerifyWorkersFor[i]; ok {
		workers = w
	}
	cfg := core.NodeConfig{
		Public:             d.Public,
		Secret:             d.secrets[i],
		Transport:          tr,
		ServiceName:        d.opts.ServiceName,
		Service:            d.opts.NewService(),
		Mode:               d.opts.Mode,
		Trust:              d.opts.Trust,
		Observer:           d.reg,
		VerifyWorkers:      workers,
		VerifyBatch:        d.opts.VerifyBatch,
		BatchSize:          d.opts.BatchSize,
		MaxBatchSize:       d.opts.MaxBatchSize,
		CheckpointInterval: d.opts.CheckpointInterval,
		RetentionWindow:    d.opts.RetentionWindow,
		CodedThreshold:     d.opts.CodedThreshold,
		ChunkSize:          d.opts.ChunkSize,
	}
	if d.opts.DataDir != "" {
		cfg.DataDir = d.serverDir(i)
		cfg.WALSyncInterval = d.opts.WALSyncInterval
		d.mu.Lock()
		cfg.WALFailAppend = d.opts.WALCrash[i]
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
	if i < 0 || i >= d.opts.Structure.N() {
		return fmt.Errorf("sintra: no server %d", i)
	}
	if d.Node(i) != nil {
		return fmt.Errorf("sintra: server %d is still running", i)
	}
	if d.opts.DataDir != "" {
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
	if d.opts.DataDir == "" {
		return errors.New("sintra: RestartServerDurable requires WithDataDir")
	}
	if i < 0 || i >= d.opts.Structure.N() {
		return fmt.Errorf("sintra: no server %d", i)
	}
	if d.Node(i) != nil {
		return fmt.Errorf("sintra: server %d is still running", i)
	}
	d.mu.Lock()
	delete(d.opts.WALCrash, i)
	d.mu.Unlock()
	d.net.Reopen(i)
	return d.startNode(i)
}

// serverDir is server i's private slice of the data directory.
func (d *SimulatedDeployment) serverDir(i int) string {
	return filepath.Join(d.opts.DataDir, fmt.Sprintf("server%d", i))
}

// NewClient attaches a client endpoint to the simulated network.
func (d *SimulatedDeployment) NewClient() (*Client, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.clientNext >= d.opts.Structure.N()+d.opts.MaxClients {
		return nil, fmt.Errorf("sintra: more than %d clients", d.opts.MaxClients)
	}
	ep := d.net.Endpoint(d.clientNext)
	d.clientNext++
	c := core.NewClient(d.Public, ep, d.opts.ServiceName, d.opts.Mode,
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
// lifecycle counts, drops. It supersedes TrafficSummary.
func (d *SimulatedDeployment) Metrics() MetricsSnapshot { return d.reg.Snapshot() }

// TrafficSummary reports the messages and bytes delivered so far, per
// protocol layer — the measurement hook of the experiment harness. It is
// a view of Metrics: per-protocol counters under "net.msgs." and
// "net.bytes.".
func (d *SimulatedDeployment) TrafficSummary() (perProtocolMsgs map[string]int, totalMsgs, totalBytes int) {
	snap := d.Metrics()
	msgs := snap.CountersWithPrefix("net.msgs.")
	perProtocolMsgs = make(map[string]int, len(msgs))
	for proto, v := range msgs {
		perProtocolMsgs[proto] = int(v)
		totalMsgs += int(v)
	}
	for _, v := range snap.CountersWithPrefix("net.bytes.") {
		totalBytes += int(v)
	}
	return perProtocolMsgs, totalMsgs, totalBytes
}

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
