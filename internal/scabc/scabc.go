// Package scabc implements secure causal atomic broadcast: atomic
// broadcast of threshold-encrypted requests, decrypted only after their
// position in the total order is fixed (paper §3, following Reiter &
// Birman's "secure causality"). A client encrypts its request under the
// service's single TDH2 public key with the service instance as label;
// the servers order the ciphertext with atomic broadcast, then exchange
// decryption shares and deliver the plaintext.
//
// Input causality holds because TDH2 is secure against adaptive
// chosen-ciphertext attacks: a corrupted server that sees a ciphertext in
// flight can neither read it nor construct a *related* ciphertext of its
// own, so it cannot front-run the request (the paper's notary scenario,
// §5.2). Invalid ciphertexts — including replays under a wrong label —
// are skipped deterministically by every honest party.
package scabc

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/coin"
	"sintra/internal/engine"
	"sintra/internal/identity"
	"sintra/internal/obs"
	"sintra/internal/threnc"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Protocol is the wire protocol name of the decryption-share exchange.
const Protocol = "scabc"

// typeShares carries decryption shares for one sequence number.
const typeShares = "SHARES"

// maxPendingWindow bounds how far ahead of the delivery frontier share
// messages are buffered.
const maxPendingWindow = 4096

type sharesBody struct {
	Seq    int64
	Shares []threnc.Share
}

// Config wires one secure-causal-atomic-broadcast instance.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Struct is the adversary structure.
	Struct *adversary.Structure
	// Trust optionally overrides the quorum backend for the whole
	// protocol stack below (atomic broadcast down to reliable
	// broadcast); nil wraps Struct in the symmetric backend.
	Trust trust.Quorums
	// Instance identifies the replicated service; it doubles as the
	// required ciphertext label.
	Instance string
	// Identity/IDKey sign the embedded atomic-broadcast proposals.
	Identity *identity.Registry
	IDKey    *identity.Key
	// Coin/CoinKey drive the embedded agreement protocols.
	Coin    *coin.Params
	CoinKey *coin.SecretKey
	// Scheme/Key are the quorum-rule threshold signatures for the
	// embedded consistent broadcasts.
	Scheme thresig.Scheme
	Key    *thresig.SecretKey
	// Enc is the service's TDH2 key; EncKey the party's decryption key.
	Enc    *threnc.Params
	EncKey *threnc.SecretKey
	// Deliver is called with dense sequence numbers and decrypted
	// requests, in the same order on every honest party.
	Deliver func(seq int64, request []byte)
	// OnInvalid is called (optionally) when an ordered ciphertext is
	// skipped as invalid.
	OnInvalid func(abcSeq int64)
	// RoundEnd, if set, fires once per atomic-broadcast round that ordered
	// a ciphertext, as soon as every ciphertext of the round has been
	// delivered or skipped as invalid: the requests Deliver saw since the
	// last call are exactly one round's on every honest party.
	RoundEnd func()
	// CodedThreshold is passed to the embedded atomic broadcast (the
	// ciphertext size from which proposals reference instead of embed);
	// see abc.Config.CodedThreshold.
	CodedThreshold int
}

// pending tracks one ordered ciphertext awaiting decryption.
type pending struct {
	combiner *threnc.Combiner
	// early holds, by sender, the first SHARES message that arrived before
	// the ciphertext was ordered here: at most n of them, however many a
	// corrupted party sends.
	early   [][]threnc.Share
	sent    bool
	plain   []byte
	done    bool
	invalid bool
	ordered time.Time // when the position was fixed (observer on only)
}

// SCABC is one secure-causal instance; dispatch-goroutine only.
type SCABC struct {
	cfg Config
	abc *abc.ABC

	byABCSeq map[int64]*pending
	nextABC  int64 // next ABC sequence to flush
	outSeq   int64 // next plaintext sequence to assign
	// marks holds, oldest first, the ABC sequence that ends each ordered
	// round not yet flushed past: one per round that ordered a ciphertext,
	// so never more than the ordered ciphertexts byABCSeq still holds.
	marks   []int64
	ordered int64 // ABC frontier at the last round end

	span *obs.Span
	// decryptLat measures order-fixed to plaintext-delivered: the cost of
	// the decryption-share exchange on top of atomic broadcast.
	decryptLat *obs.Histogram
}

// New creates and registers an instance together with its embedded atomic
// broadcast (dispatch goroutine or pre-Run).
func New(cfg Config) *SCABC {
	s := &SCABC{
		cfg:      cfg,
		byABCSeq: make(map[int64]*pending),
		span:     obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if reg := s.span.Registry(); reg != nil {
		s.decryptLat = reg.Histogram(Protocol + ".latency.decrypt")
	}
	// No checkpoint hooks: secure-causal mode relies on the ordering
	// layer's deterministic dedup-history prune for bounded memory — full
	// checkpoint state transfer is atomic-mode only (the pending-decrypt
	// pipeline is not settled at round boundaries).
	s.abc = abc.New(abc.Config{
		Router:         cfg.Router,
		Struct:         cfg.Struct,
		Trust:          cfg.Trust,
		Instance:       cfg.Instance + "/ord",
		Identity:       cfg.Identity,
		IDKey:          cfg.IDKey,
		Coin:           cfg.Coin,
		CoinKey:        cfg.CoinKey,
		Scheme:         cfg.Scheme,
		Key:            cfg.Key,
		CodedThreshold: cfg.CodedThreshold,
		Deliver:        s.onOrdered,
		RoundEnd:       s.onRoundEnd,
	})
	cfg.Router.Register(Protocol, cfg.Instance, s.handle)
	return s
}

// Encrypt produces the ciphertext bytes a client submits to the service:
// a TDH2 encryption of the request, labelled with the instance name.
func Encrypt(enc *threnc.Params, instance string, request []byte) ([]byte, error) {
	ct, err := enc.Encrypt(request, []byte(instance), rand.Reader)
	if err != nil {
		return nil, err
	}
	return wire.MarshalBody(ct)
}

// Submit hands an encrypted request (from Encrypt) to the ordering layer.
// Safe from any goroutine (a loopback message); callers already on the
// dispatch goroutine use SubmitLocal.
func (s *SCABC) Submit(ciphertext []byte) error {
	return s.abc.Broadcast(ciphertext)
}

// SubmitLocal is Submit in place, for callers on the dispatch goroutine.
func (s *SCABC) SubmitLocal(ciphertext []byte) { s.abc.Submit(ciphertext) }

// Seq returns the number of plaintexts delivered so far.
func (s *SCABC) Seq() int64 { return s.outSeq }

// onOrdered runs when the embedded atomic broadcast fixes a ciphertext's
// position.
func (s *SCABC) onOrdered(seq int64, payload []byte) {
	p := s.pendingFor(seq)
	if s.decryptLat != nil {
		p.ordered = time.Now()
	}
	var ct threnc.Ciphertext
	var combiner *threnc.Combiner
	if s.cfg.Router.Decode(payload, &ct) && bytes.Equal(ct.Label, []byte(s.cfg.Instance)) {
		// NewCombiner verifies the ciphertext's proof; nil if it fails.
		combiner, _ = threnc.NewCombiner(s.cfg.Enc, &ct)
	}
	if combiner == nil {
		p.invalid = true
		p.done = true
		s.span.Event(obs.StageDrop, seq, "invalid ciphertext")
		s.flush()
		return
	}
	p.combiner = combiner
	// Release our decryption shares only now — after the position is
	// fixed — and feed any early-arrived shares from faster parties.
	if !p.sent {
		p.sent = true
		shares, err := s.cfg.Enc.DecryptShares(s.cfg.EncKey, &ct, rand.Reader)
		if err == nil {
			_ = s.cfg.Router.BroadcastJournaled(fmt.Sprintf("shares/%d", seq),
				Protocol, s.cfg.Instance, typeShares, sharesBody{Seq: seq, Shares: shares})
		}
	}
	for from, shares := range p.early {
		s.addShares(p, seq, from, shares)
	}
	p.early = nil
	s.tryDecrypt(seq)
}

// onRoundEnd marks where the embedded atomic broadcast's round ended, and
// flushes in case the round's last ciphertext is settled already.
func (s *SCABC) onRoundEnd(seq, _, _ int64) {
	if seq > s.ordered {
		s.ordered = seq
		s.marks = append(s.marks, seq)
		s.flush()
	}
}

func (s *SCABC) pendingFor(seq int64) *pending {
	p, ok := s.byABCSeq[seq]
	if !ok {
		p = &pending{}
		s.byABCSeq[seq] = p
	}
	return p
}

// handle processes one message on the dispatch goroutine.
func (s *SCABC) handle(from int, msgType string, payload []byte) {
	if msgType != typeShares {
		return
	}
	var body sharesBody
	if !s.cfg.Router.Decode(payload, &body) {
		return
	}
	if body.Seq < s.nextABC || body.Seq > s.nextABC+maxPendingWindow {
		return
	}
	p := s.pendingFor(body.Seq)
	if p.done {
		return
	}
	if p.combiner == nil {
		// Ciphertext not ordered locally yet: keep the sender's first message.
		if p.early == nil {
			p.early = make([][]threnc.Share, s.cfg.Router.N())
		}
		if p.early[from] == nil {
			p.early[from] = body.Shares
		}
		return
	}
	s.addShares(p, body.Seq, from, body.Shares)
	s.tryDecrypt(body.Seq)
}

// addShares adds the decryption shares that party from sent for seq.
func (s *SCABC) addShares(p *pending, seq int64, from int, shares []threnc.Share) {
	if p.combiner.AddFrom(from, shares) {
		s.span.Event("shares.rejected", seq, fmt.Sprint("from ", from))
	}
}

func (s *SCABC) tryDecrypt(seq int64) {
	p := s.pendingFor(seq)
	if p.done || p.combiner == nil || !p.combiner.Ready() {
		return
	}
	plain, err := p.combiner.Decrypt()
	if err != nil {
		return
	}
	p.plain = plain
	p.done = true
	s.flush()
}

// flush delivers decrypted requests strictly in order, ending each round
// once it is past the round's last ciphertext.
func (s *SCABC) flush() {
	for {
		for len(s.marks) > 0 && s.marks[0] <= s.nextABC {
			s.marks = s.marks[1:]
			if s.cfg.RoundEnd != nil {
				s.cfg.RoundEnd()
			}
		}
		p, ok := s.byABCSeq[s.nextABC]
		if !ok || !p.done {
			return
		}
		if p.invalid {
			if s.cfg.OnInvalid != nil {
				s.cfg.OnInvalid(s.nextABC)
			}
		} else {
			seq := s.outSeq
			s.outSeq++
			s.span.Event(obs.StageDeliver, seq, "")
			if s.decryptLat != nil && !p.ordered.IsZero() {
				s.decryptLat.ObserveSince(p.ordered)
			}
			if s.cfg.Deliver != nil {
				s.cfg.Deliver(seq, p.plain)
			}
		}
		delete(s.byABCSeq, s.nextABC)
		s.nextABC++
	}
}
