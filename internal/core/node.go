package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sintra/internal/abc"
	"sintra/internal/checkpoint"
	"sintra/internal/deal"
	"sintra/internal/engine"
	"sintra/internal/merkle"
	"sintra/internal/obs"
	"sintra/internal/scabc"
	"sintra/internal/trust"
	"sintra/internal/wal"
	"sintra/internal/wire"
)

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
	// and held back until the journal is durable, so a crash-restarted
	// replica re-sends byte-identical messages — never conflicting ones.
	// Empty keeps the replica memoryless (a restart is amnesiac).
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

	// answers lists what the ordered round in progress has applied, in
	// sequence order; its round boundary signs them all at once
	// (flushAnswers). Dispatch goroutine only.
	answers []answer

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
	signedCount  *obs.Counter
	applyLat     *obs.Histogram

	runOnce  sync.Once
	stopOnce sync.Once
}

// answer is one applied request's response and the endpoint its
// envelope names.
type answer struct {
	client int
	responseBody
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
	n := &Node{cfg: cfg, router: engine.NewRouter(cfg.Transport)}
	if cfg.Observer != nil {
		n.router.SetObserver(cfg.Observer)
		n.appliedCount = cfg.Observer.Counter("node.applied")
		n.signedCount = cfg.Observer.Counter("node.answer.signed")
		n.applyLat = cfg.Observer.Histogram("node.apply.latency")
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
			CodedThreshold: cfg.CodedThreshold,
			Deliver:        n.onDeliver,
			EndRound:       n.endRound,
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
			CodedThreshold: cfg.CodedThreshold,
			Deliver:        n.onDeliver,
			EndRound:       n.endRound,
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

// onClientMessage hands a client's REQUEST payload to the ordering layer
// (and ignores stray RESPONSE echoes). The payload names the client its
// answer goes to, so nothing about the sender is kept here.
func (n *Node) onClientMessage(_ int, msgType string, payload []byte) {
	if msgType == typeRequest {
		n.submit(payload)
	}
}

// endRound is the ordering layer's round boundary: the round's answers
// are signed and sent, the journal's size is sampled, and a live round,
// not one replayed from a checkpoint suffix, drives the checkpoint
// tracker. Dispatch goroutine only.
func (n *Node) endRound(r abc.Round) {
	n.flushAnswers()
	if n.journal != nil {
		n.walSize.Set(n.journal.Size())
	}
	if !r.Replayed && n.ckpt != nil {
		n.ckpt.RoundEnd(r.End, r.Number+1)
	}
}

// installCheckpoint adopts a certified checkpoint fetched from a peer:
// restore the service snapshot when it is ahead of the local frontier,
// then replay the delivery suffix through the ordering layer so dedup
// bookkeeping, sequence numbers, and client answers all take the normal
// path. Dispatch goroutine only (called by the tracker's STATE handler).
func (n *Node) installCheckpoint(cp checkpoint.Checkpoint, snapshot []byte, suffix []abc.SuffixRound, liveRound int64) bool {
	var install func() bool
	if cp.Seq >= n.abc.Seq() {
		install = func() bool { return n.snapper.Restore(snapshot) == nil }
	}
	return n.abc.Install(cp.Seq, install, suffix, liveRound)
}

// onStableCheckpoint reacts to a newly certified checkpoint: it bounds
// the journal. Commitments of rounds (or checkpoint sequences) entirely
// below the certified horizon can never be re-sent meaningfully, so they
// are dropped and the live ledger is rewritten into a fresh segment,
// truncating everything older. Dispatch goroutine only.
func (n *Node) onStableCheckpoint(cp checkpoint.Checkpoint) {
	if n.journal == nil {
		return
	}
	prefix := "svc/" + n.cfg.ServiceName + "/r"
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
	if err := n.journal.Compact(); err == nil {
		n.walSize.Set(n.journal.Size())
	}
}

// slotSuffix parses the numeric tail of a journal slot name such as
// "prop/<round>" or "share/<seq>".
func slotSuffix(slot, prefix string) (int64, bool) {
	rest, ok := strings.CutPrefix(slot, prefix)
	v, err := strconv.ParseInt(rest, 10, 64)
	return v, ok && err == nil
}

// roundIn finds the round marker anywhere in the instance name, covering
// sub-protocol instances whose name embeds the per-round parent (e.g.
// MVBA's "<sender>/m/svc/<name>/r<round>" CBC instances).
func roundIn(instance, prefix string) (int64, bool) {
	_, rest, ok := strings.Cut(instance, prefix)
	rest, _, _ = strings.Cut(rest, "/")
	r, err := strconv.ParseInt(rest, 10, 64)
	return r, ok && err == nil
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

// apply runs the state machine and adds the answer to the round's batch.
func (n *Node) apply(seq int64, env envelope) {
	var start time.Time
	if n.applyLat != nil {
		start = time.Now()
	}
	result := n.cfg.Service.Apply(seq, env.Body)
	n.appliedCount.Inc()
	n.applyLat.ObserveSince(start)
	n.answers = append(n.answers, answer{env.Client, responseBody{ReqID: env.ReqID, Seq: seq, Result: result}})
}

// flushAnswers closes the answers of a round: one threshold-signature
// share on the root of a Merkle tree over every answer the round
// delivered, then each answer goes, with that share and its branch, to the
// client endpoint its envelope names. The batch is a function of the total
// order alone, so every honest replica signs the same root and sends the
// same answers, and the client combines the shares. A round whose
// envelopes name no client endpoint (an index below the server count) is
// not signed; an index no endpoint holds is dropped by the transport.
// Dispatch goroutine only.
func (n *Node) flushAnswers() {
	batch := n.answers
	n.answers = nil
	servers := n.cfg.Transport.N()
	if !slices.ContainsFunc(batch, func(a answer) bool { return a.client >= servers }) {
		return
	}
	leaves := make([][]byte, len(batch))
	for i, a := range batch {
		leaves[i] = answerStatement(n.cfg.ServiceName, a.ReqID, a.Result)
	}
	tree := merkle.NewTree(leaves)
	share, err := n.cfg.Public.AnswerSig().SignShare(n.cfg.Secret.SigAnswer,
		rootStatement(n.cfg.ServiceName, len(batch), tree.Root()), rand.Reader)
	if err != nil {
		return
	}
	n.signedCount.Inc()
	for i, a := range batch {
		if a.client < servers {
			continue
		}
		r := a.responseBody
		r.Share, r.Index, r.Count, r.Branch = share, i, len(batch), tree.Branch(i)
		_ = n.router.Send(a.client, clientProtocol, n.cfg.ServiceName, typeResponse, r)
	}
}

// VerifyAnswer lets anyone check a service's threshold-signed answer: sig
// (Answer.Signature) holds the service's signature on the root of one
// ordered round's answers and this answer's Merkle branch, and together
// they prove that servers beyond the adversary structure's reach attested
// the result for this request ID. A malformed sig costs at most
// merkle.MaxBranch hashes before it is refused.
func VerifyAnswer(pub *deal.Public, service string, reqID [16]byte, result, sig []byte) error {
	var p answerProof
	if wire.UnmarshalBody(sig, &p) != nil {
		return errors.New("core: malformed answer signature")
	}
	root, ok := merkle.BranchRoot(p.Index, p.Count, answerStatement(service, reqID, result), p.Branch)
	if !ok {
		return errors.New("core: answer branch does not fold")
	}
	return pub.AnswerSig().Verify(rootStatement(service, p.Count, root), p.Sig)
}
