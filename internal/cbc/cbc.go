// Package cbc implements consistent broadcast (echo broadcast with a
// threshold-signature certificate), the variation of reliable broadcast
// the paper highlights (§3): it guarantees uniqueness of the delivered
// message but relaxes totality — a party may instead learn of the message
// by other means and fetch it, presenting the transferable delivery
// certificate. The protocol goes back to Reiter's echo multicast and is
// the workhorse of the multi-valued agreement protocol, where proposals
// are c-broadcast and their certificates serve as evidence.
//
// Flow: the sender SENDs the payload; every party keeps it with its
// digest and, if it accepts it (the external-validity predicate), returns
// a signature share on the digest to the sender; the sender combines a
// quorum of shares into a certificate and FINALs (digest, certificate) —
// the payload does not travel twice. Since two quorums intersect in an
// honest party and honest parties sign at most one digest per instance, at
// most one digest can ever carry a valid certificate: uniqueness. Each
// share and certificate entry is checked, but a party's own share (the
// sender's in its combine, everyone's when byte for byte what it returned
// for the certified digest) is taken unchecked.
//
// Delivery is one rule, whatever brought the two halves: a verified
// certificate and a payload whose SHA-256 is the certified digest are both
// here. The payload comes from the sender's first SEND or from an ANS; the
// certificate from a FINAL, from the layer above (Certify), from a REQ that
// presents one, or from an ANS. A party that holds a certificate without
// the payload asks for it with Fetch; a REQ that cannot be served yet is
// remembered and answered on delivery. A certificate implies an honest
// party that signed, so holds, the SEND payload — and a REQ that carries
// the certificate makes that party deliver and answer.
package cbc

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/thresig"
	"sintra/internal/trust"
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

// certBody is FINAL and REQ: a certificate for a digest. A REQ may be bare
// (no certificate): the asker only knows that the broadcast completed.
type certBody struct {
	Digest [32]byte
	Cert   []byte
}

// ansBody answers a REQ with both halves.
type ansBody struct {
	Payload []byte
	Cert    []byte
}

// Stages counted through the instance span, so the slow path is visible.
const (
	stageCertEarly     = "cert.early"     // a certificate had to wait for its payload
	stageCertRejected  = "cert.rejected"  // a certificate (or an ANS payload) that does not check out
	stageShareRejected = "share.rejected" // a SHARE a failed combine named invalid
	stageFetchSent     = "fetch.sent"     // this party asked for the payload
	stageFetchServed   = "fetch.served"   // this party answered a REQ
)

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
	return verifyCertificate(scheme, instance, sha256.Sum256(payload), cert, thresig.Own{})
}

// verifyCertificate checks a certificate against the digest it speaks for;
// no payload is needed, or hashed, to check one, nor the entry that is own.
func verifyCertificate(scheme thresig.Scheme, instance string, digest [32]byte, cert []byte, own thresig.Own) error {
	if err := thresig.VerifyOwn(scheme, signedStatement(instance, digest), cert, own); err != nil {
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
	// Certified is called once, when the instance first holds a verified
	// certificate — before Deliver, which may follow at once or wait for
	// the payload.
	Certified func()
	// Predicate optionally rejects payloads (external validity).
	Predicate func(payload []byte) bool
}

// CBC is one consistent-broadcast instance; dispatch-goroutine only.
type CBC struct {
	cfg   Config
	trust trust.Quorums

	// The payload half: the sender's first SEND (the sender's own START),
	// kept with its digest whether or not this party signs it, or an ANS
	// payload that matches the certificate.
	payload []byte
	digest  [32]byte
	held    bool
	signed  bool        // this party returned its share on digest: never a second one
	own     thresig.Own // that share and its statement

	// The certificate half: the first certificate that verified. Once
	// certified, no message makes this party check another one.
	cert       []byte
	certDigest [32]byte
	certified  bool

	delivered bool

	// Sender-side state. stmt is the signed statement of the payload this
	// party broadcasts, nil everywhere else. shares are the signature
	// shares on it, unverified; shareFrom are their senders and those of
	// the shares a failed combine found invalid and dropped.
	stmt       []byte
	sentDigest [32]byte
	shares     []thresig.Share
	comb       thresig.Combiner // combines shares
	shareFrom  adversary.Set
	finalSent  bool

	// waiting are the parties whose REQ could not be served yet, answered
	// the parties served; asked is set once this party has sent its REQs.
	waiting, answered adversary.Set
	asked             bool

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
	cfg.Router.Register(Protocol, cfg.Instance, c.handle)
	return c
}

// certMsg is a decoded FINAL, REQ or ANS: the digest its certificate
// speaks for (an ANS is hashed where it arrives), the certificate and,
// with an ANS, the payload. combined marks the sender's own certificate,
// which thresig.Combine has just checked.
type certMsg struct {
	digest   [32]byte
	cert     []byte
	payload  []byte // with ans
	ans      bool
	combined bool
}

// decodeCert decodes a FINAL, REQ or ANS; nil when it is malformed.
func (c *CBC) decodeCert(msgType string, payload []byte) *certMsg {
	v := &certMsg{ans: msgType == typeAns}
	if v.ans {
		var body ansBody
		if !c.cfg.Router.Decode(payload, &body) {
			return nil
		}
		v.payload, v.cert, v.digest = body.Payload, body.Cert, sha256.Sum256(body.Payload)
	} else {
		var body certBody
		if !c.cfg.Router.Decode(payload, &body) {
			return nil
		}
		v.digest, v.cert = body.Digest, body.Cert
	}
	return v
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

// handle processes one message on the dispatch goroutine.
func (c *CBC) handle(from int, msgType string, payload []byte) {
	switch msgType {
	case "START":
		var body sendBody
		if from != c.cfg.Router.Self() || c.stmt != nil || !c.cfg.Router.Decode(payload, &body) {
			return
		}
		c.sentDigest = sha256.Sum256(body.Payload)
		c.stmt = signedStatement(c.cfg.Instance, c.sentDigest)
		_ = c.cfg.Router.BroadcastJournaled("send", Protocol, c.cfg.Instance, typeSend, sendBody{Payload: body.Payload})
		// The sender's own copy arrives here, hashed once; its SEND to
		// itself is then a second one and ignored.
		c.keep(body.Payload, c.sentDigest)
	case typeSend:
		var body sendBody
		if from != c.cfg.Sender || c.held || !c.cfg.Router.Decode(payload, &body) {
			return // an honest sender sends one SEND: only the first is looked at
		}
		c.keep(body.Payload, sha256.Sum256(body.Payload))
	case typeShare:
		var body shareBody
		if c.cfg.Router.Decode(payload, &body) {
			c.onShare(from, body.Share)
		}
	case typeFinal, typeReq, typeAns:
		if !c.delivered {
			v := c.decodeCert(msgType, payload)
			if v == nil {
				return
			}
			c.accept(v)
		}
		if msgType == typeReq {
			c.onReq(from)
		}
	}
}

// keep stores the sender's payload with its digest and signs it if it is
// externally valid; a certificate that outran the payload delivers now.
func (c *CBC) keep(payload []byte, digest [32]byte) {
	if c.held {
		return
	}
	c.payload, c.digest, c.held = payload, digest, true
	c.Reeval()
	c.deliverIfComplete()
}

// Reeval signs the kept payload once the external-validity predicate
// accepts it, and returns the share to the sender. A payload failing the
// predicate is kept, not discarded: predicates gated on local availability
// (ABC accepts a proposal list only once it holds every payload the list
// references by digest) can start holding and later pass. Call from the
// dispatch goroutine whenever local state the predicate depends on has
// changed. Once a certificate exists a share is of no use to anyone.
func (c *CBC) Reeval() {
	if !c.held || c.signed || c.certified || !c.valid(c.payload) {
		return
	}
	// The signature share is the commitment CBC's consistency rests on:
	// a recovered replica must never sign a second digest for this
	// instance.
	c.signed = true
	stmt := signedStatement(c.cfg.Instance, c.digest)
	share, err := c.cfg.Scheme.SignShare(c.cfg.Key, stmt, rand.Reader)
	if err != nil {
		return
	}
	c.own = thresig.Own{Msg: stmt, Share: share}
	_ = c.cfg.Router.SendJournaled("share", c.cfg.Sender, Protocol, c.cfg.Instance, typeShare, shareBody{Share: share})
}

// onShare: the sender collects shares, one per party and unverified,
// and combines them once they meet the quorum rule, checking each but
// its own: a failed combine names the invalid shares, which are dropped
// while their senders stay counted, and the sender waits for more. A
// certificate that combines is the sender's without a second check: its
// own FINAL, broadcast to every party like the others, finds the
// instance certified.
func (c *CBC) onShare(from int, share thresig.Share) {
	if c.stmt == nil || c.finalSent || share.Party != from || c.shareFrom.Has(from) {
		return
	}
	c.shareFrom = c.shareFrom.Add(from)
	c.shares = append(c.shares, share)
	if !c.quorum() {
		return
	}
	cert, bad, err := c.comb.Combine(c.cfg.Scheme, c.stmt, c.shares, c.own)
	if bad != nil {
		for _, i := range bad {
			c.span.Event(stageShareRejected, -1, fmt.Sprint("from ", c.shares[i].Party))
		}
		c.shares = thresig.Without(c.shares, bad)
	}
	if err != nil || !c.quorum() {
		return
	}
	c.finalSent = true
	_ = c.cfg.Router.Broadcast(Protocol, c.cfg.Instance, typeFinal, certBody{Digest: c.sentDigest, Cert: cert})
	c.accept(&certMsg{digest: c.sentDigest, cert: cert, combined: true})
}

// quorum reports whether the shares held meet the scheme's rule and are
// a quorum in this party's view.
func (c *CBC) quorum() bool {
	var parties adversary.Set
	for _, sh := range c.shares {
		parties = parties.Add(sh.Party)
	}
	return c.cfg.Scheme.Sufficient(parties) && c.trust.IsQuorum(c.cfg.Sender, parties)
}

// Certify presents a certificate learned by other means — a vote of the
// agreement above. Dispatch goroutine only.
func (c *CBC) Certify(digest [32]byte, cert []byte) {
	c.accept(&certMsg{digest: digest, cert: cert})
}

// accept applies the delivery rule to what one message brought: a
// certificate, checked only while the instance holds none (a failing one
// is counted and changes nothing), and, from an ANS, a payload, taken
// only for the certified digest — an equivocating sender's second
// payload never delivers, whoever forwards it.
func (c *CBC) accept(v *certMsg) {
	fresh := false
	if len(v.cert) > 0 && !c.certified {
		if fresh = v.combined || verifyCertificate(c.cfg.Scheme, c.cfg.Instance, v.digest, v.cert, c.own) == nil; fresh {
			c.certDigest, c.cert, c.certified = v.digest, v.cert, true
		} else {
			c.span.Event(stageCertRejected, -1, "")
		}
	}
	if v.ans && c.certified && !c.complete() {
		if v.digest == c.certDigest {
			c.payload, c.digest, c.held = v.payload, v.digest, true
		} else {
			c.span.Event(stageCertRejected, -1, "")
		}
	}
	if fresh {
		if !c.complete() {
			c.span.Event(stageCertEarly, -1, "")
		}
		if c.cfg.Certified != nil {
			c.cfg.Certified()
		}
	}
	c.deliverIfComplete()
}

// complete is the delivery rule: a verified certificate and a payload
// whose SHA-256 is the certified digest are both here.
func (c *CBC) complete() bool {
	return c.certified && c.held && c.digest == c.certDigest
}

// deliverIfComplete delivers, once, and serves every REQ remembered.
func (c *CBC) deliverIfComplete() {
	if c.delivered || !c.complete() {
		return
	}
	c.delivered = true
	c.span.End(obs.StageDeliver, -1)
	if c.cfg.Deliver != nil {
		c.cfg.Deliver(c.payload, c.cert)
	}
	for _, to := range c.waiting.Members() {
		c.onReq(to)
	}
}

// onReq: serve the certified payload to a party that learned of the
// message by other means — at most once per requester, at once or, when
// this party cannot serve it yet, the moment it delivers.
func (c *CBC) onReq(from int) {
	if !c.delivered {
		c.waiting = c.waiting.Add(from)
		return
	}
	if c.answered.Has(from) {
		return
	}
	c.answered = c.answered.Add(from)
	c.span.Event(stageFetchServed, -1, "")
	_ = c.cfg.Router.Send(from, Protocol, c.cfg.Instance, typeAns, ansBody{Payload: c.payload, Cert: c.cert})
}

// Certificate returns the certified digest and its certificate, once the
// instance holds one.
func (c *CBC) Certificate() (digest [32]byte, cert []byte, ok bool) {
	return c.certDigest, c.cert, c.certified
}

// Delivered returns the delivered payload.
func (c *CBC) Delivered() (payload []byte, ok bool) {
	if !c.delivered {
		return nil, false
	}
	return c.payload, true
}

// Fetch asks every other party for the payload, once, presenting the
// certificate if one is here: a holder that lacked the certificate then
// delivers and answers. It reports whether it asked. Dispatch goroutine
// only.
func (c *CBC) Fetch() bool {
	if c.asked || c.complete() {
		return false
	}
	c.asked = true
	c.span.Event(stageFetchSent, -1, "")
	req := certBody{Digest: c.certDigest, Cert: c.cert}
	for to := 0; to < c.cfg.Router.N(); to++ {
		if to != c.cfg.Router.Self() {
			_ = c.cfg.Router.Send(to, Protocol, c.cfg.Instance, typeReq, req)
		}
	}
	return true
}
