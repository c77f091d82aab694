package core

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sintra/internal/abc"
	"sintra/internal/checkpoint"
	"sintra/internal/deal"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/scabc"
	"sintra/internal/trust"
	"sintra/internal/wal"
	"sintra/internal/wire"
)

// requestTTL is the fallback expiry for request bookkeeping of
// payloads that never a-deliver; the stable-checkpoint horizon usually
// clears them first.
const requestTTL = 2 * time.Minute

// maxPendingRequests hard-caps the request-bookkeeping map; beyond it
// the oldest entries are evicted (a flood of undeliverable requests
// costs the flooder its own response routing, never memory).
const maxPendingRequests = 4096

// NodeConfig configures one replica.
type NodeConfig struct {
	// Public is the dealer's public output; Secret this party's keys.
	Public *deal.Public
	Secret *deal.PartySecret
	// Transport connects the replica to the network.
	Transport wire.Transport
	// ServiceName tags the replicated service (protocol instance).
	ServiceName string
	// Service is the deterministic application.
	Service StateMachine
	// Mode selects atomic or secure-causal request dissemination.
	Mode Mode
	// Trust optionally overrides the quorum backend for the whole
	// protocol stack (atomic broadcast down to reliable broadcast and
	// the common coin). Nil wraps the deployment's adversary structure
	// in the symmetric backend — the paper's trust model and the
	// default. Asymmetric deployments build a backend from a trust.Spec
	// (see trust.ParseSpec) and must pass the same per-party fail-prone
	// systems on every replica.
	Trust trust.Quorums
	// Observer optionally wires the replica — its router, the whole
	// broadcast stack beneath it, and the state-machine execution — into
	// an observability registry. Nil leaves observability off. Structured
	// protocol-stage events go to the registry's tracer (SetTracer).
	Observer *obs.Registry
	// DataDir, when non-empty, enables the durable write-ahead log under
	// this directory: every protocol-critical outbound message (RBC
	// echoes, ABA votes, coin shares, signed proposals, ...) is journaled
	// and held back until the journal is durable, and the delivery
	// frontier is logged at apply time, so a crash-restarted replica
	// re-sends byte-identical messages — never conflicting ones. Empty keeps the
	// replica memoryless (a restart is amnesiac, as before this knob).
	DataDir string
	// WALFailAppend is a crash-injection hook forwarded to the WAL: the
	// first append whose LSN it accepts fails and wedges the journal,
	// muting the replica mid-protocol (kill-at-record-N testing).
	WALFailAppend func(lsn uint64) bool
	// Tuning holds every performance and protocol knob; the zero value is
	// the default configuration.
	Tuning
}

// Node is one replica of a distributed trusted service.
type Node struct {
	cfg    NodeConfig // Tuning resolved: every default written out
	router *engine.Router

	// reqClients maps a request correlation ID to the client endpoints
	// that asked for it, plus enough position/age bookkeeping to expire
	// entries whose request never delivers (dispatch goroutine only).
	reqClients map[[16]byte]*reqEntry
	// reqOrder is the FIFO of live correlation IDs (head-indexed), the
	// eviction order of the maxPendingRequests cap.
	reqOrder     [][16]byte
	reqHead      int
	reqSinceScan int

	// submit is the ordering layer's in-place entry point (dispatch
	// goroutine only), in either mode.
	submit func(payload []byte)

	// Atomic-mode checkpointing (nil when disabled or not applicable).
	abc     *abc.ABC
	ckpt    *checkpoint.Tracker
	snapper Snapshotter

	// journal is the durability journal (nil without DataDir). Opened —
	// and replayed — before any protocol instance exists, so recovered
	// commitments are in force before the replica can emit a message.
	journal *wal.Journal
	walSize *obs.Gauge

	appliedCount *obs.Counter
	applyLat     *obs.Histogram
	reqSize      *obs.Gauge

	runOnce  sync.Once
	stopOnce sync.Once
}

// reqEntry records who to answer for one in-flight request.
type reqEntry struct {
	clients []int
	seq     int64 // delivery frontier when the request was first seen
	at      time.Time
}

// NewNode builds a replica. Call Run to start serving; Stop to shut down.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Public == nil || cfg.Secret == nil || cfg.Transport == nil || cfg.Service == nil {
		return nil, errors.New("core: incomplete node configuration")
	}
	if cfg.ServiceName == "" {
		return nil, errors.New("core: service name required")
	}
	if cfg.Mode != ModeAtomic && cfg.Mode != ModeSecureCausal {
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	cfg.Tuning = cfg.Tuning.resolved()
	n := &Node{
		cfg:        cfg,
		router:     engine.NewRouter(cfg.Transport),
		reqClients: make(map[[16]byte]*reqEntry),
	}
	n.router.SetVerifyWorkers(cfg.VerifyWorkers)
	if cfg.Observer != nil {
		n.router.SetObserver(cfg.Observer)
		n.appliedCount = cfg.Observer.Counter("node.applied")
		n.applyLat = cfg.Observer.Histogram("node.apply.latency")
		n.reqSize = cfg.Observer.Gauge("node.reqclients.size")
	}

	// Durability journal: open (and replay) before any protocol instance
	// is constructed, so every commitment recovered from disk is already
	// in force when the first message could be sent.
	if cfg.DataDir != "" {
		j, err := wal.OpenJournal(filepath.Join(cfg.DataDir, "wal"), wal.Options{
			NoSync:     cfg.NoFsync,
			FailAppend: cfg.WALFailAppend,
		})
		if err != nil {
			return nil, fmt.Errorf("core: open journal: %w", err)
		}
		n.journal = j
		n.router.SetJournal(j)
		if cfg.Observer != nil {
			j.SetObserver(cfg.Observer)
			n.walSize = cfg.Observer.Gauge("wal.size.bytes")
			n.walSize.Set(j.Size())
			cfg.Observer.Gauge("wal.recovered.records").Set(int64(j.Recovered()))
		}
	}

	// Checkpointing engages in atomic mode when the service can snapshot
	// itself and the interval is not turned off.
	snapper, canSnap := cfg.Service.(Snapshotter)
	useCkpt := cfg.Mode == ModeAtomic && canSnap && cfg.CheckpointInterval > 0

	qtrust := cfg.Trust
	if qtrust == nil {
		qtrust = trust.NewSymmetric(cfg.Public.Structure)
	}
	if qtrust.N() != cfg.Public.Structure.N() {
		return nil, fmt.Errorf("core: trust backend is for %d parties, deployment has %d", qtrust.N(), cfg.Public.Structure.N())
	}
	if a, ok := qtrust.(*trust.Asymmetric); ok {
		// Gated coin combiners must not starve: every observer needs a
		// quorum the dealt sharing scheme can reconstruct from.
		if err := a.CompatibleWithAccess(cfg.Public.Coin.Qualified); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	switch cfg.Mode {
	case ModeAtomic:
		abcCfg := abc.Config{
			Router:         n.router,
			Struct:         cfg.Public.Structure,
			Trust:          qtrust,
			Instance:       "svc/" + cfg.ServiceName,
			Identity:       cfg.Public.Identity,
			IDKey:          cfg.Secret.Identity,
			Coin:           cfg.Public.Coin,
			CoinKey:        cfg.Secret.Coin,
			Scheme:         cfg.Public.QuorumSig(),
			Key:            cfg.Secret.SigQuorum,
			BatchSize:      cfg.BatchSize,
			MaxBatchSize:   cfg.MaxBatchSize,
			CodedThreshold: cfg.CodedThreshold,
			Deliver:        n.onDeliver,
			RoundEnd:       n.onRoundEnd,
		}
		if useCkpt {
			// Late binding through the node fields: the tracker needs the
			// abc frontier and the abc needs the tracker's certificates.
			abcCfg.ProvideCheckpoint = func() []byte {
				if n.ckpt == nil {
					return nil
				}
				return n.ckpt.EncodedStable()
			}
			abcCfg.VerifyCheckpoint = func(enc []byte) (int64, bool) {
				if n.ckpt == nil {
					return 0, false
				}
				return n.ckpt.VerifyEncoded(enc)
			}
		}
		n.abc = abc.New(abcCfg)
		n.submit = n.abc.Submit
		if useCkpt {
			n.snapper = snapper
			n.ckpt = checkpoint.New(checkpoint.Config{
				Router:     n.router,
				Trust:      cfg.Trust,
				Instance:   "svc/" + cfg.ServiceName,
				Scheme:     cfg.Public.AnswerSig(),
				Key:        cfg.Secret.SigAnswer,
				Interval:   cfg.CheckpointInterval,
				Snapshot:   snapper.Snapshot,
				CurrentSeq: n.abc.Seq,
				Suffix:     n.abc.SuffixSince,
				Install:    n.installCheckpoint,
				OnStable:   n.onStableCheckpoint,
			})
		}
	case ModeSecureCausal:
		n.submit = scabc.New(scabc.Config{
			Router:         n.router,
			Struct:         cfg.Public.Structure,
			Trust:          qtrust,
			Instance:       "svc/" + cfg.ServiceName,
			Identity:       cfg.Public.Identity,
			IDKey:          cfg.Secret.Identity,
			Coin:           cfg.Public.Coin,
			CoinKey:        cfg.Secret.Coin,
			Scheme:         cfg.Public.QuorumSig(),
			Key:            cfg.Secret.SigQuorum,
			Enc:            cfg.Public.Enc,
			EncKey:         cfg.Secret.Enc,
			BatchSize:      cfg.BatchSize,
			MaxBatchSize:   cfg.MaxBatchSize,
			CodedThreshold: cfg.CodedThreshold,
			Deliver:        n.onDeliver,
		}).SubmitLocal
	}
	n.router.AcceptClients(clientProtocol)
	n.router.Register(clientProtocol, cfg.ServiceName, n.onClientMessage)
	if n.ckpt != nil {
		// A (re)started replica immediately asks peers for the latest
		// stable checkpoint; live peers simply won't have a newer one.
		n.ckpt.RequestCatchUp()
	}
	return n, nil
}

// Run starts the replica's dispatch loop (blocking). Usually invoked in a
// goroutine; returns when the transport closes.
func (n *Node) Run() {
	n.runOnce.Do(n.router.Run)
}

// Stop shuts the replica down and waits for the dispatch loop to exit.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		_ = n.cfg.Transport.Close()
		// The router has dropped its outbox by the time Done closes, so
		// the journal's closing commit cannot release anything.
		<-n.router.Done()
		if n.journal != nil {
			_ = n.journal.Close()
		}
	})
}

// Router exposes the protocol router (used by the experiment harness).
func (n *Node) Router() *engine.Router { return n.router }

// Journal exposes the durability journal (nil without DataDir); the
// crash-recovery harness inspects recovery and wedge state through it.
func (n *Node) Journal() *wal.Journal { return n.journal }

// Seq reports the atomic-broadcast delivery frontier (0 in secure-causal
// mode). Safe from any goroutine; the restart/catch-up harness polls it.
func (n *Node) Seq() int64 {
	if n.abc == nil {
		return 0
	}
	return n.abc.Seq()
}

// PendingRequests reports the request-bookkeeping map size (blocking
// DoSync; tests and the soak harness assert it stays bounded).
func (n *Node) PendingRequests() int {
	var size int
	n.router.DoSync(func() { size = len(n.reqClients) })
	return size
}

// onClientMessage handles REQUEST messages from clients (and ignores
// stray RESPONSE echoes).
func (n *Node) onClientMessage(from int, msgType string, payload []byte) {
	if msgType != typeRequest {
		return
	}
	var req requestBody
	if !n.router.Decode(payload, &req) {
		return
	}
	if from >= n.cfg.Transport.N() {
		// Remember which client endpoint to answer (bounded fan-in).
		e := n.reqClients[req.ReqID]
		if e == nil {
			n.sweepRequests()
			e = &reqEntry{seq: n.Seq(), at: time.Now()}
			n.reqClients[req.ReqID] = e
			n.reqOrder = append(n.reqOrder, req.ReqID)
			if n.reqSize != nil {
				n.reqSize.Set(int64(len(n.reqClients)))
			}
		}
		seen := false
		for _, c := range e.clients {
			if c == from {
				seen = true
				break
			}
		}
		if !seen && len(e.clients) < 8 {
			e.clients = append(e.clients, from)
		}
	}
	n.submit(req.Payload)
}

// sweepRequests bounds the request bookkeeping on the insert path: a
// periodic TTL scan expires entries whose request never delivered (the
// checkpoint horizon usually clears them first, but a flood of
// undeliverable requests sees no round progress), and a hard cap evicts
// oldest-first. Dispatch goroutine only.
func (n *Node) sweepRequests() {
	if n.reqSinceScan++; n.reqSinceScan >= 256 {
		n.reqSinceScan = 0
		now := time.Now()
		for id, e := range n.reqClients {
			if now.Sub(e.at) > requestTTL {
				delete(n.reqClients, id)
			}
		}
	}
	for len(n.reqClients) >= maxPendingRequests && n.reqHead < len(n.reqOrder) {
		id := n.reqOrder[n.reqHead]
		n.reqHead++
		delete(n.reqClients, id) // no-op when already answered
	}
	n.compactReqOrder()
}

// compactReqOrder rebuilds the eviction FIFO once its consumed-or-dead
// prefix dominates, keeping the backing array bounded. Dispatch
// goroutine only.
func (n *Node) compactReqOrder() {
	if len(n.reqOrder)-n.reqHead > 2*len(n.reqClients)+1024 || (n.reqHead > 1024 && n.reqHead*2 >= len(n.reqOrder)) {
		kept := n.reqOrder[:0]
		for _, id := range n.reqOrder[n.reqHead:] {
			if _, live := n.reqClients[id]; live {
				kept = append(kept, id)
			}
		}
		n.reqOrder = kept
		n.reqHead = 0
	}
}

// onRoundEnd is the ordering layer's round-boundary hook: it drives the
// checkpoint tracker and expires request bookkeeping below the GC
// horizon. Dispatch goroutine only.
func (n *Node) onRoundEnd(seq, nextRound, horizon int64) {
	if n.ckpt != nil {
		n.ckpt.RoundEnd(seq, nextRound)
	}
	if horizon <= 0 {
		return
	}
	// Entries whose request was first seen a full interval below the
	// horizon have had every chance to deliver; expire them. The age
	// guard keeps a just-inserted entry alive when the horizon races
	// right up to the frontier.
	grace := n.cfg.CheckpointInterval
	if grace <= 0 {
		grace = DefaultCheckpointInterval
	}
	now := time.Now()
	removed := false
	for id, e := range n.reqClients {
		if e.seq+grace <= horizon && now.Sub(e.at) > 5*time.Second {
			delete(n.reqClients, id)
			removed = true
		}
	}
	if removed {
		n.compactReqOrder()
		if n.reqSize != nil {
			n.reqSize.Set(int64(len(n.reqClients)))
		}
	}
}

// installCheckpoint adopts a certified checkpoint fetched from a peer:
// restore the service snapshot when it is ahead of the local frontier,
// then replay the delivery suffix through the ordering layer so dedup
// bookkeeping, sequence numbers, and client answers all take the normal
// path. Dispatch goroutine only (called by the tracker's STATE handler).
func (n *Node) installCheckpoint(cp checkpoint.Checkpoint, snapshot []byte, suffix [][]byte, liveRound int64) bool {
	var install func() bool
	if cp.Seq >= n.abc.Seq() {
		install = func() bool { return n.snapper.Restore(snapshot) == nil }
	}
	return n.abc.Install(cp.Seq, install, suffix, liveRound)
}

// onStableCheckpoint reacts to a newly certified checkpoint: tombstoned
// protocol instances of rounds entirely below the certified round are
// compacted away. Dispatch goroutine only.
func (n *Node) onStableCheckpoint(cp checkpoint.Checkpoint) {
	prefix := "svc/" + n.cfg.ServiceName + "/r"
	n.router.CompactTombstones(func(protocol, instance string) bool {
		// roundIn, not roundOf: sub-protocol instances embed the round
		// marker mid-name (MVBA's "<sender>/m/svc/<name>/r<round>" CBCs).
		r, ok := roundIn(instance, prefix)
		return ok && r < cp.Round
	})
	if n.journal == nil {
		return
	}
	// Checkpoint stability bounds the journal: commitments of rounds (or
	// checkpoint sequences) entirely below the certified horizon can never
	// be re-sent meaningfully, so drop them and rewrite the live ledger
	// into a fresh segment, truncating everything older.
	n.journal.Forget(func(protocol, instance, slot string) bool {
		// The round marker can sit mid-name: MVBA's per-proposer CBC
		// instances look like "<sender>/m/svc/<name>/r<round>".
		if r, ok := roundIn(instance, prefix); ok {
			return r < cp.Round
		}
		switch protocol {
		case abc.Protocol:
			if r, ok := slotSuffix(slot, "prop/"); ok {
				return r < cp.Round
			}
		case checkpoint.Protocol:
			if s, ok := slotSuffix(slot, "share/"); ok {
				return s < cp.Seq
			}
		}
		return false
	})
	if err := n.journal.Compact(); err == nil && n.walSize != nil {
		n.walSize.Set(n.journal.Size())
	}
}

// slotSuffix parses the numeric tail of a journal slot name such as
// "prop/<round>" or "share/<seq>".
func slotSuffix(slot, prefix string) (int64, bool) {
	if !strings.HasPrefix(slot, prefix) {
		return 0, false
	}
	v, err := strconv.ParseInt(slot[len(prefix):], 10, 64)
	return v, err == nil
}

// roundIn finds the round marker anywhere in the instance name, covering
// sub-protocol instances whose name embeds the per-round parent (e.g.
// MVBA's "<sender>/m/svc/<name>/r<round>" CBC instances).
func roundIn(instance, prefix string) (int64, bool) {
	i := strings.Index(instance, prefix)
	if i < 0 {
		return 0, false
	}
	return roundAfter(instance[i+len(prefix):])
}

func roundAfter(rest string) (int64, bool) {
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	r, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return r, true
}

// onDeliver executes an envelope delivered by the ordering layer: as
// submitted in atomic mode, decrypted in secure-causal mode.
func (n *Node) onDeliver(seq int64, request []byte) {
	var env envelope
	if !n.router.Decode(request, &env) {
		return // malformed request: deterministic skip on every replica
	}
	n.apply(seq, env)
}

// apply runs the state machine and answers the requesting clients.
func (n *Node) apply(seq int64, env envelope) {
	var start time.Time
	if n.applyLat != nil {
		start = time.Now()
	}
	result := n.cfg.Service.Apply(seq, env.Body)
	n.appliedCount.Inc()
	n.applyLat.ObserveSince(start)
	if n.journal != nil {
		// Log the delivery frontier at apply time (no wait; the answer
		// below is held back until the commit covering it completes).
		d := sha256.Sum256(env.Body)
		_ = n.journal.RecordDeliver(seq, d[:])
		n.walSize.Set(n.journal.Size())
	}

	scheme := n.cfg.Public.AnswerSig()
	share, err := scheme.SignShare(n.cfg.Secret.SigAnswer,
		answerStatement(n.cfg.ServiceName, env.ReqID, result), rand.Reader)
	if err != nil {
		return
	}
	resp := responseBody{
		ReqID:  env.ReqID,
		Seq:    seq,
		Result: result,
		Share:  share,
	}
	if e := n.reqClients[env.ReqID]; e != nil {
		for _, client := range e.clients {
			_ = n.router.Send(client, clientProtocol, n.cfg.ServiceName, typeResponse, resp)
		}
		delete(n.reqClients, env.ReqID)
		if n.reqSize != nil {
			n.reqSize.Set(int64(len(n.reqClients)))
		}
	}
}

// VerifyAnswer lets anyone check a service's threshold-signed answer: the
// signature proves that servers beyond the adversary structure's reach
// attested the result for this request ID.
func VerifyAnswer(pub *deal.Public, service string, reqID [16]byte, result, sig []byte) error {
	return pub.AnswerSig().Verify(answerStatement(service, reqID, result), sig)
}
