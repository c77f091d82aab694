// Package cbc implements consistent broadcast (echo broadcast with a
// threshold-signature certificate), the variation of reliable broadcast
// the paper highlights (§3): it guarantees uniqueness of the delivered
// message but relaxes totality — a party may instead learn of the message
// by other means and fetch it, presenting the transferable delivery
// certificate. The protocol goes back to Reiter's echo multicast and is
// the workhorse of the multi-valued agreement protocol, where proposals
// are c-broadcast and their certificates serve as evidence.
//
// Flow: the sender SENDs the payload; every party that accepts it (the
// external-validity predicate) returns a signature share on the payload
// digest to the sender; the sender combines a quorum of shares into a
// certificate and FINALs (payload, certificate); parties deliver on a
// valid certificate. Since two quorums intersect in an honest party and
// honest parties sign at most one digest per instance, at most one payload
// can ever carry a valid certificate: uniqueness.
package cbc

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/thresig"
	"sintra/internal/trust"
	"sintra/internal/wire"
)

// Protocol is the wire protocol name of consistent broadcast.
const Protocol = "cbc"

// Message types.
const (
	typeSend  = "SEND"
	typeShare = "SHARE"
	typeFinal = "FINAL"
	typeReq   = "REQ"
	typeAns   = "ANS"
)

type sendBody struct {
	Payload []byte
}

type shareBody struct {
	Share thresig.Share
}

type finalBody struct {
	Payload []byte
	Cert    []byte
}

type emptyBody struct{}

// InstanceID builds the canonical instance identifier, binding the sender.
func InstanceID(sender int, tag string) string {
	return strconv.Itoa(sender) + "/" + tag
}

// SenderOf parses the sender out of an instance identifier.
func SenderOf(instance string) (int, error) {
	head, _, ok := strings.Cut(instance, "/")
	if !ok {
		return 0, fmt.Errorf("cbc: malformed instance %q", instance)
	}
	sender, err := strconv.Atoi(head)
	if err != nil {
		return 0, fmt.Errorf("cbc: malformed instance %q", instance)
	}
	return sender, nil
}

// signedStatement is the string whose threshold signature certifies a
// delivery: it binds instance and payload digest.
func signedStatement(instance string, digest [32]byte) []byte {
	return []byte("cbc|" + instance + "|" + hex.EncodeToString(digest[:]))
}

// VerifyCertificate checks a transferable delivery certificate for the
// given instance and payload.
func VerifyCertificate(scheme thresig.Scheme, instance string, payload, cert []byte) error {
	d := sha256.Sum256(payload)
	if err := scheme.Verify(signedStatement(instance, d), cert); err != nil {
		return fmt.Errorf("cbc: certificate: %w", err)
	}
	return nil
}

// Config wires one consistent-broadcast instance.
type Config struct {
	// Router is the party's protocol router.
	Router *engine.Router
	// Struct is the adversary structure.
	Struct *adversary.Structure
	// Trust optionally overrides the quorum backend: the sender combines
	// a certificate only from a share set that is a quorum in its own
	// view, on top of the scheme's sufficiency rule. nil wraps Struct in
	// the symmetric backend, for which the two rules coincide.
	Trust trust.Quorums
	// Instance is the instance identifier (use InstanceID).
	Instance string
	// Sender is the broadcasting party.
	Sender int
	// Scheme is the quorum-rule threshold signature scheme.
	Scheme thresig.Scheme
	// Key is this party's signing key for Scheme.
	Key *thresig.SecretKey
	// Deliver is called exactly once with the payload and its
	// transferable certificate.
	Deliver func(payload, cert []byte)
	// Predicate optionally rejects payloads (external validity).
	Predicate func(payload []byte) bool
}

// CBC is one consistent-broadcast instance; dispatch-goroutine only.
type CBC struct {
	cfg   Config
	trust trust.Quorums

	signedDigest *[32]byte // the digest this party signed, if any
	pendingSend  []byte    // SEND payload whose predicate hasn't passed yet
	delivered    bool
	payload      []byte
	cert         []byte

	// Sender-side state.
	sentPayload []byte
	shares      []thresig.Share
	shareFrom   adversary.Set
	finalSent   bool

	// stmt is the signed statement snapshot for the Verify stage: written
	// once by the sender's START apply, read by verify workers checking
	// SHARE messages. nil until the local payload is known.
	stmt atomic.Pointer[[]byte]

	answered adversary.Set

	span *obs.Span
}

// New creates and registers an instance on the router (dispatch goroutine
// or pre-Run only).
func New(cfg Config) *CBC {
	c := &CBC{
		cfg:  cfg,
		span: obs.StartSpan(cfg.Router.Observer(), cfg.Router.Self(), Protocol, cfg.Instance),
	}
	if c.trust = cfg.Trust; c.trust == nil {
		c.trust = trust.NewSymmetric(cfg.Struct)
	}
	cfg.Router.RegisterSplit(Protocol, cfg.Instance, engine.SplitHandler{
		Verify:      c.verifyMsg,
		BatchVerify: c.batchVerify,
		Apply:       c.apply,
		VerifyTypes: []string{typeShare, typeFinal, typeAns},
	})
	return c
}

// shareVerdict is the Verify-stage result for a SHARE message, checked
// against the statement snapshot published by the sender's START.
type shareVerdict struct {
	share thresig.Share
	valid bool
}

// finalVerdict is the Verify-stage result for FINAL and ANS messages:
// the decoded body and whether its certificate checks out. Certificate
// verification needs no protocol state, so the verdict is authoritative.
type finalVerdict struct {
	payload, cert []byte
	valid         bool
}

// verifyMsg is the parallel Verify stage: signature-share checks (SHARE)
// and certificate checks (FINAL/ANS) — the instance's dominant
// public-key costs — run here, off the dispatch goroutine.
func (c *CBC) verifyMsg(from int, msgType string, payload []byte) any {
	switch msgType {
	case typeShare:
		stmt := c.stmt.Load()
		if stmt == nil {
			// The local START has not applied yet; defer to inline
			// verification (the share would be dropped anyway).
			return nil
		}
		var body shareBody
		if wire.UnmarshalBody(payload, &body) != nil {
			return nil
		}
		return &shareVerdict{
			share: body.Share,
			valid: c.cfg.Scheme.VerifyShare(*stmt, body.Share) == nil,
		}
	case typeFinal, typeAns:
		var body finalBody
		if wire.UnmarshalBody(payload, &body) != nil {
			return nil
		}
		return &finalVerdict{
			payload: body.Payload,
			cert:    body.Cert,
			valid:   VerifyCertificate(c.cfg.Scheme, c.cfg.Instance, body.Payload, body.Cert) == nil,
		}
	}
	return nil
}

// batchVerify is the coalescing Verify stage. A SHARE burst — the
// sender collecting one signature share from every party — folds into
// one thresig batch check against the published statement. FINAL and
// ANS certificates have no share structure to fold and are verified
// per message.
func (c *CBC) batchVerify(msgs []*wire.Message) ([]any, int) {
	if msgs[0].Type != typeShare {
		verdicts := make([]any, len(msgs))
		for i, m := range msgs {
			verdicts[i] = c.verifyMsg(m.From, m.Type, m.Payload)
		}
		return verdicts, 0
	}
	stmt := c.stmt.Load()
	if stmt == nil {
		// The local START has not applied yet; defer to inline
		// verification (the shares would be dropped anyway).
		return make([]any, len(msgs)), 0
	}
	verdicts := make([]any, len(msgs))
	shares := make([]thresig.Share, 0, len(msgs))
	slots := make([]int, 0, len(msgs))
	for i, m := range msgs {
		var body shareBody
		if wire.UnmarshalBody(m.Payload, &body) != nil {
			continue
		}
		verdicts[i] = &shareVerdict{share: body.Share}
		slots = append(slots, i)
		shares = append(shares, body.Share)
	}
	bad := thresig.BatchVerify(c.cfg.Scheme, *stmt, shares)
	badSet := make(map[int]bool, len(bad))
	for _, j := range bad {
		badSet[j] = true
	}
	for j, i := range slots {
		verdicts[i].(*shareVerdict).valid = !badSet[j]
	}
	return verdicts, len(bad)
}

// Start c-broadcasts the payload; sender only. Safe from any goroutine
// (routed through a loopback message).
func (c *CBC) Start(payload []byte) error {
	if c.cfg.Router.Self() != c.cfg.Sender {
		return fmt.Errorf("cbc: party %d cannot start instance of sender %d", c.cfg.Router.Self(), c.cfg.Sender)
	}
	return c.cfg.Router.Loopback(Protocol, c.cfg.Instance, "START", sendBody{Payload: payload})
}

func (c *CBC) valid(payload []byte) bool {
	return c.cfg.Predicate == nil || c.cfg.Predicate(payload)
}

// apply is the serialized Apply stage; a non-nil verdict carries the
// Verify stage's result and skips re-verification.
func (c *CBC) apply(from int, msgType string, payload []byte, verdict any) {
	switch msgType {
	case "START":
		var body sendBody
		if from != c.cfg.Router.Self() || !c.cfg.Router.Decode(payload, &body) {
			return
		}
		if c.sentPayload != nil {
			return
		}
		c.sentPayload = body.Payload
		d := sha256.Sum256(body.Payload)
		stmt := signedStatement(c.cfg.Instance, d)
		c.stmt.Store(&stmt) // expose the statement to verify workers
		_ = c.cfg.Router.BroadcastJournaled("send", Protocol, c.cfg.Instance, typeSend, sendBody{Payload: body.Payload})
	case typeSend:
		var body sendBody
		if from != c.cfg.Sender || !c.cfg.Router.Decode(payload, &body) {
			return
		}
		c.onSend(body.Payload)
	case typeShare:
		if v, ok := verdict.(*shareVerdict); ok {
			if v.valid {
				c.onShare(from, v.share, true)
			}
			return
		}
		var body shareBody
		if !c.cfg.Router.Decode(payload, &body) {
			return
		}
		c.onShare(from, body.Share, false)
	case typeFinal, typeAns:
		if v, ok := verdict.(*finalVerdict); ok {
			if v.valid {
				c.onFinalVerified(v.payload, v.cert)
			}
			return
		}
		var body finalBody
		if !c.cfg.Router.Decode(payload, &body) {
			return
		}
		c.onFinal(body.Payload, body.Cert)
	case typeReq:
		c.onReq(from)
	}
}

// onSend: sign the digest once and return the share to the sender. A
// payload failing the predicate is stashed, not discarded: predicates
// gated on local availability (ABC accepts a proposal list only once it
// holds every payload the list references by digest) can start holding
// and later pass — Reeval retries the stash.
func (c *CBC) onSend(payload []byte) {
	if c.signedDigest != nil || c.pendingSend != nil {
		return // an honest sender sends one SEND: only the first is looked at
	}
	if !c.valid(payload) {
		c.pendingSend = payload
		return
	}
	c.signAndShare(payload)
}

// Reeval re-runs the external-validity predicate on a stashed SEND whose
// first evaluation failed. Call from the dispatch goroutine whenever
// local state the predicate depends on has changed.
func (c *CBC) Reeval() {
	if c.signedDigest != nil || c.pendingSend == nil || !c.valid(c.pendingSend) {
		return
	}
	payload := c.pendingSend
	c.pendingSend = nil
	c.signAndShare(payload)
}

// signAndShare signs the payload digest and returns the share to the
// sender; the caller has already established external validity.
func (c *CBC) signAndShare(payload []byte) {
	c.pendingSend = nil
	d := sha256.Sum256(payload)
	c.signedDigest = &d
	share, err := c.cfg.Scheme.SignShare(c.cfg.Key, signedStatement(c.cfg.Instance, d), rand.Reader)
	if err != nil {
		return
	}
	// The signature share is the commitment CBC's consistency rests on:
	// a recovered replica must never sign a second digest for this
	// instance.
	_ = c.cfg.Router.SendJournaled("share", c.cfg.Sender, Protocol, c.cfg.Instance, typeShare, shareBody{Share: share})
}

// onShare: sender collects shares until the quorum rule is met.
// preVerified shares passed the Verify stage against the published
// statement and skip re-verification.
func (c *CBC) onShare(from int, share thresig.Share, preVerified bool) {
	if c.cfg.Router.Self() != c.cfg.Sender || c.finalSent || c.sentPayload == nil {
		return
	}
	if share.Party != from || c.shareFrom.Has(from) {
		return
	}
	d := sha256.Sum256(c.sentPayload)
	stmt := signedStatement(c.cfg.Instance, d)
	if !preVerified {
		if err := c.cfg.Scheme.VerifyShare(stmt, share); err != nil {
			return
		}
	}
	c.shareFrom = c.shareFrom.Add(from)
	c.shares = append(c.shares, share)
	if !c.cfg.Scheme.Sufficient(c.shareFrom) || !c.trust.IsQuorum(c.cfg.Sender, c.shareFrom) {
		return
	}
	cert, err := c.cfg.Scheme.Combine(stmt, c.shares)
	if err != nil {
		return
	}
	c.finalSent = true
	_ = c.cfg.Router.Broadcast(Protocol, c.cfg.Instance, typeFinal, finalBody{Payload: c.sentPayload, Cert: cert})
}

// onFinal: verify the certificate and deliver.
func (c *CBC) onFinal(payload, cert []byte) {
	if c.delivered {
		return
	}
	if VerifyCertificate(c.cfg.Scheme, c.cfg.Instance, payload, cert) != nil {
		return
	}
	c.onFinalVerified(payload, cert)
}

// onFinalVerified delivers a payload whose certificate already checked
// out (in onFinal or in the Verify stage).
func (c *CBC) onFinalVerified(payload, cert []byte) {
	if c.delivered {
		return
	}
	c.delivered = true
	c.payload = payload
	c.cert = cert
	c.span.End(obs.StageDeliver, -1)
	if c.cfg.Deliver != nil {
		c.cfg.Deliver(payload, cert)
	}
}

// onReq: serve the certified payload to a party that learned of the
// message by other means (at most once per requester).
func (c *CBC) onReq(from int) {
	if !c.delivered || c.answered.Has(from) {
		return
	}
	c.answered = c.answered.Add(from)
	_ = c.cfg.Router.Send(from, Protocol, c.cfg.Instance, typeAns, finalBody{Payload: c.payload, Cert: c.cert})
}

// Fetch asks the given parties for the certified payload (used by parties
// that learned about the broadcast out of band). Safe from any goroutine.
func (c *CBC) Fetch(parties []int) {
	for _, j := range parties {
		if j != c.cfg.Router.Self() {
			_ = c.cfg.Router.Send(j, Protocol, c.cfg.Instance, typeReq, emptyBody{})
		}
	}
}
