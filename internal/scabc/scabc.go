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
// §5.2). Invalid ciphertexts — including replays under a wrong label, and
// payloads that do not open — are skipped alike by every honest party.
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

// typeShares carries one party's decryption shares for one ordered round.
const typeShares = "SHARES"

// maxPendingRounds bounds how far past the last round ended here share
// messages are buffered.
const maxPendingRounds = 1024

// sharesBody is one party's decryption shares for one round: a list per
// ciphertext the round ordered, in order, and an empty one for each
// ciphertext skipped as invalid.
type sharesBody struct {
	Round  int64
	Shares [][]threnc.Share
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
	// EndRound, if set, fires once per atomic-broadcast round that ordered
	// a ciphertext, as soon as every ciphertext of the round has been
	// delivered or skipped as invalid: the requests Deliver saw since the
	// last call are exactly one round's on every honest party. The Round's
	// First and End are plaintext sequence numbers, and Skipped counts the
	// invalid ciphertexts.
	EndRound func(abc.Round)
	// CodedThreshold is passed to the embedded atomic broadcast (the
	// ciphertext size from which proposals reference instead of embed);
	// see abc.Config.CodedThreshold.
	CodedThreshold int
}

// ciphertext is one ordered ciphertext: its combiner, nil when it was
// skipped as invalid, and, once done, its plaintext or skip set.
type ciphertext struct {
	combiner   *threnc.Combiner
	plain      []byte
	done, skip bool
}

// round is one atomic-broadcast round's ciphertexts on their way to
// delivery; until the round ends here it only buffers early shares.
type round struct {
	number int64
	// cts holds the ciphertexts the round ordered, in order, from when the
	// round ends here; left counts those not yet decrypted or skipped.
	cts  []ciphertext
	left int
	// early holds, by sender, the share lists of the first SHARES message
	// that arrived before the round ended here: at most n of them, however
	// many a corrupted party sends.
	early   [][][]threnc.Share
	ordered time.Time // when the round ended here
}

// SCABC is one secure-causal instance; dispatch-goroutine only.
type SCABC struct {
	cfg Config
	abc *abc.ABC

	// open collects the ciphertexts of the round being ordered.
	open []ciphertext
	// rounds holds by number the rounds ended here and not yet delivered,
	// and the early shares for up to maxPendingRounds past ended; queue
	// lists the former, oldest first.
	rounds map[int64]*round
	queue  []*round
	ended  int64 // the last round ended here
	outSeq int64 // next plaintext sequence to assign

	span *obs.Span
	// decryptLat measures order-fixed to plaintext-delivered: the cost of
	// the decryption-share exchange on top of atomic broadcast.
	decryptLat *obs.Histogram
}

// New creates and registers an instance together with its embedded atomic
// broadcast (dispatch goroutine or pre-Run).
func New(cfg Config) *SCABC {
	s := &SCABC{
		cfg:    cfg,
		rounds: make(map[int64]*round),
		span:   obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
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
		EndRound:       s.onRoundEnd,
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

// onOrdered runs when the embedded atomic broadcast fixes a ciphertext's
// position: it joins the round being ordered.
func (s *SCABC) onOrdered(seq int64, payload []byte) {
	var ct threnc.Ciphertext
	var c ciphertext
	if s.cfg.Router.Decode(payload, &ct) && bytes.Equal(ct.Label, []byte(s.cfg.Instance)) {
		// NewCombiner verifies the ciphertext's proof; nil if it fails.
		c.combiner, _ = threnc.NewCombiner(s.cfg.Enc, &ct)
	}
	if c.combiner == nil {
		c.done, c.skip = true, true
		s.span.Event(obs.StageDrop, seq, "invalid ciphertext")
	}
	s.open = append(s.open, c)
}

// onRoundEnd runs when the embedded atomic broadcast ends a round. One that
// ordered ciphertexts releases this party's decryption shares for all of
// them in one message — only now, after their positions are fixed — and
// takes the shares that faster parties sent early.
func (s *SCABC) onRoundEnd(r abc.Round) {
	s.ended = r.Number
	rd := s.rounds[r.Number]
	if len(s.open) == 0 {
		delete(s.rounds, r.Number)
		return
	}
	if rd == nil {
		rd = &round{}
		s.rounds[r.Number] = rd
	}
	rd.number, rd.cts, rd.ordered, s.open = r.Number, s.open, time.Now(), nil
	lists := make([][]threnc.Share, len(rd.cts))
	var err error
	for k, c := range rd.cts {
		if !c.done {
			rd.left++
			if err == nil {
				lists[k], err = c.combiner.Shares(s.cfg.EncKey, rand.Reader)
			}
		}
	}
	if err == nil && rd.left > 0 {
		_ = s.cfg.Router.BroadcastJournaled(fmt.Sprintf("shares/%d", r.Number),
			Protocol, s.cfg.Instance, typeShares, sharesBody{Round: r.Number, Shares: lists})
	}
	s.queue = append(s.queue, rd)
	for from, lists := range rd.early {
		if lists != nil {
			s.addShares(rd, from, lists)
		}
	}
	rd.early = nil
	s.flush()
}

// handle processes one message on the dispatch goroutine.
func (s *SCABC) handle(from int, msgType string, payload []byte) {
	var body sharesBody
	if msgType != typeShares || !s.cfg.Router.Decode(payload, &body) || body.Round > s.ended+maxPendingRounds {
		return
	}
	rd := s.rounds[body.Round]
	switch {
	case body.Round <= s.ended && rd != nil:
		s.addShares(rd, from, body.Shares)
		s.flush()
	case body.Round > s.ended:
		// Round not ended here yet: keep the sender's first message.
		if rd == nil {
			rd = &round{early: make([][][]threnc.Share, s.cfg.Router.N())}
			s.rounds[body.Round] = rd
		}
		if rd.early[from] == nil {
			rd.early[from] = body.Shares
		}
	}
}

// addShares adds the decryption shares that party from sent for rd and
// decrypts each ciphertext that has enough. A message without exactly one
// list per ciphertext, an empty one for each skipped, is rejected before
// any proof is checked, and the first list that fails its check ends the
// message; either is counted.
func (s *SCABC) addShares(rd *round, from int, lists [][]threnc.Share) {
	bad := len(lists) != len(rd.cts)
	for k := 0; !bad && k < len(lists); k++ {
		bad = rd.cts[k].combiner == nil && len(lists[k]) > 0
	}
	for k := 0; !bad && k < len(lists); k++ {
		c := &rd.cts[k]
		if c.done {
			continue
		}
		if bad = c.combiner.AddFrom(from, lists[k]); bad || !c.combiner.Ready() {
			continue
		}
		// A payload that does not open under the combined key, whose proof
		// held, fails alike on every honest party: it is skipped.
		plain, err := c.combiner.Decrypt()
		c.plain, c.done, c.skip = plain, true, err != nil
		rd.left--
	}
	if bad {
		s.span.Event("shares.rejected", rd.number, fmt.Sprint("from ", from))
	}
}

// flush delivers the ended rounds strictly in order, each once every
// ciphertext of it is decrypted or skipped, and ends each after its last
// request.
func (s *SCABC) flush() {
	for len(s.queue) > 0 && s.queue[0].left == 0 {
		rd := s.queue[0]
		s.queue = s.queue[1:]
		delete(s.rounds, rd.number)
		r := abc.Round{Number: rd.number, First: s.outSeq}
		for _, c := range rd.cts {
			if c.skip {
				r.Skipped++
				continue
			}
			seq := s.outSeq
			s.outSeq++
			s.span.Event(obs.StageDeliver, seq, "")
			s.decryptLat.ObserveSince(rd.ordered)
			if s.cfg.Deliver != nil {
				s.cfg.Deliver(seq, c.plain)
			}
		}
		r.End = s.outSeq
		if s.cfg.EndRound != nil {
			s.cfg.EndRound(r)
		}
	}
}
