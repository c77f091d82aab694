package cbc_test

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// The delivery rule — a verified certificate and a payload whose SHA-256
// is the certified digest are both here — under the orders a scheduler or
// a corrupted sender can force. Run with -race -count=10.

// holdScheduler delivers a random pending message among those hold does
// not keep back, and remembers what it delivered. hold sees the log, so
// a message can wait for another one to be out.
type holdScheduler struct {
	mu        sync.Mutex
	rng       *mrand.Rand
	hold      func(s *holdScheduler, m *wire.Message) bool
	delivered []wire.Message
}

func newHoldScheduler(seed int64, hold func(s *holdScheduler, m *wire.Message) bool) *holdScheduler {
	return &holdScheduler{rng: mrand.New(mrand.NewSource(seed)), hold: hold}
}

func (s *holdScheduler) Next(pending []wire.Message) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var free []int
	for i := range pending {
		if !s.hold(s, &pending[i]) {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	idx := free[s.rng.Intn(len(free))]
	s.delivered = append(s.delivered, pending[idx])
	return idx
}

// saw counts delivered messages of a type to a party; call it from hold
// (the lock is held) or through count.
func (s *holdScheduler) saw(msgType string, to int) (n int) {
	for i := range s.delivered {
		if s.delivered[i].Type == msgType && s.delivered[i].To == to {
			n++
		}
	}
	return n
}

func (s *holdScheduler) count(msgType string, to int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saw(msgType, to)
}

// waitCounter polls a party's registry until the counter reaches want.
func waitCounter(t *testing.T, c *testutil.Cluster, party int, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.Regs[party].Snapshot().Counter(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("party %d: %s = %d, want %d", party, name, c.Regs[party].Snapshot().Counter(name), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func counter(c *testutil.Cluster, party int, name string) int64 {
	return c.Regs[party].Snapshot().Counter(name)
}

// noFurtherDelivery fences every running router and then requires the
// delivery channel to be empty: nobody delivered a second time.
func noFurtherDelivery(t *testing.T, c *testutil.Cluster, ch chan delivery) {
	t.Helper()
	for _, r := range c.Routers {
		if r != nil {
			r.DoSync(func() {})
		}
	}
	select {
	case d := <-ch:
		t.Fatalf("party %d delivered again (%q)", d.party, d.payload)
	default:
	}
}

// byzantine drives corrupted party 0 from the test: it sees everything
// sent to it and sends what it likes.
type byzantine struct {
	t     *testing.T
	c     *testutil.Cluster
	inbox chan wire.Message
}

func newByzantine(t *testing.T, c *testutil.Cluster) *byzantine {
	// The inbox outlives the test only until the network stops; the buffer
	// holds a test's worth of answers so the reader never blocks.
	b := &byzantine{t: t, c: c, inbox: make(chan wire.Message, 4096)}
	go func() {
		for {
			m, ok := c.Net.Endpoint(0).Recv()
			if !ok {
				return
			}
			b.inbox <- m
		}
	}()
	return b
}

func (b *byzantine) send(to int, instance, msgType string, body any) {
	b.c.Net.Endpoint(0).Send(wire.Message{
		To: to, Protocol: cbc.Protocol, Instance: instance,
		Type: msgType, Payload: wire.MustMarshalBody(body),
	})
}

// next returns the next message of the given type sent to party 0.
func (b *byzantine) next(msgType string) wire.Message {
	b.t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case m := <-b.inbox:
			if m.Type == msgType {
				return m
			}
		case <-deadline:
			b.t.Fatalf("timeout waiting for a %s", msgType)
		}
	}
}

// certify c-broadcasts payload to the given parties as the sender of the
// instance would, up to but not including FINAL: it collects their shares,
// adds its own and combines the certificate.
func (b *byzantine) certify(instance string, payload []byte, to ...int) (digest [32]byte, cert []byte) {
	b.t.Helper()
	for _, p := range to {
		b.send(p, instance, "SEND", struct{ Payload []byte }{payload})
	}
	scheme := b.c.Pub.QuorumSig()
	digest = sha256.Sum256(payload)
	stmt := cbc.SignedStatement(instance, digest)
	own, err := scheme.SignShare(b.c.Secrets[0].SigQuorum, stmt, rand.Reader)
	if err != nil {
		b.t.Fatal(err)
	}
	shares := []thresig.Share{own}
	for len(shares) <= len(to) {
		m := b.next("SHARE")
		var body struct{ Share thresig.Share }
		if err := wire.UnmarshalBody(m.Payload, &body); err != nil {
			b.t.Fatal(err)
		}
		if m.Instance == instance && scheme.VerifyShare(stmt, body.Share) == nil {
			shares = append(shares, body.Share)
		}
	}
	cert, err = scheme.Combine(stmt, shares)
	if err != nil {
		b.t.Fatal(err)
	}
	return digest, cert
}

// TestFinalBeforeSendDeliversOnce: under the random scheduler a
// certificate may outrun its SEND. Party 3's SEND is held until its FINAL
// is out; the certificate waits, and the SEND delivers — exactly once.
func TestFinalBeforeSendDeliversOnce(t *testing.T) {
	sched := newHoldScheduler(11, func(s *holdScheduler, m *wire.Message) bool {
		return m.Type == "SEND" && m.To == 3 && s.saw("FINAL", 3) == 0
	})
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: sched, Observe: true})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "early", []int{0, 1, 2, 3}, ch, nil)
	msg := []byte("the certificate is here first")
	if err := insts[0].Start(msg); err != nil {
		t.Fatal(err)
	}
	for _, d := range waitDeliveries(t, ch, 4) {
		if !bytes.Equal(d.payload, msg) {
			t.Fatalf("party %d delivered %q", d.party, d.payload)
		}
		if err := cbc.VerifyCertificate(c.Pub.QuorumSig(), cbc.InstanceID(0, "early"), d.payload, d.cert); err != nil {
			t.Fatalf("party %d: %v", d.party, err)
		}
	}
	noFurtherDelivery(t, c, ch)
	if n := counter(c, 3, "cbc.cert.early"); n != 1 {
		t.Fatalf("party 3: cbc.cert.early = %d, want 1", n)
	}
	if n := counter(c, 3, "cbc.fetch.sent"); n != 0 {
		t.Fatalf("party 3 fetched a payload that was on its way")
	}
}

// TestEquivocatingSenderFetch: the sender SENDs A to a quorum and B to
// party 3. The certificate can only be for A; party 3 never delivers B,
// fetches A — two Fetch calls, one REQ to each peer — and delivers it.
func TestEquivocatingSenderFetch(t *testing.T) {
	sched := newHoldScheduler(13, func(*holdScheduler, *wire.Message) bool { return false })
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Scheduler: sched, Observe: true, Corrupted: []int{0}})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "eq", []int{1, 2, 3}, ch, nil)
	instance := cbc.InstanceID(0, "eq")
	b := newByzantine(t, c)

	a, other := []byte("payload-A"), []byte("payload-B")
	b.send(3, instance, "SEND", struct{ Payload []byte }{other})
	digest, cert := b.certify(instance, a, 1, 2)
	if cbc.VerifyCertificate(c.Pub.QuorumSig(), instance, other, cert) == nil {
		t.Fatal("the certificate for A validates B")
	}
	// Party 3 must hold B before the certificate arrives, or the FINAL
	// would make it wait for the first SEND instead of refusing it.
	deadline := time.Now().Add(30 * time.Second)
	for sched.count("SEND", 3) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("party 3 never got its SEND")
		}
		time.Sleep(time.Millisecond)
	}
	for _, to := range []int{1, 2, 3} {
		b.send(to, instance, "FINAL", cbc.CertBody{Digest: digest, Cert: cert})
	}
	for _, d := range waitDeliveries(t, ch, 2) {
		if d.party == 3 || !bytes.Equal(d.payload, a) {
			t.Fatalf("party %d delivered %q", d.party, d.payload)
		}
	}
	waitCounter(t, c, 3, "cbc.cert.early", 1) // certified, and B is not the payload
	noFurtherDelivery(t, c, ch)

	var asked [2]bool
	c.Routers[3].DoSync(func() { asked[0], asked[1] = insts[3].Fetch(), insts[3].Fetch() })
	if !asked[0] || asked[1] {
		t.Fatalf("two Fetch calls asked %v, want [true false]", asked)
	}
	if d := waitDeliveries(t, ch, 1)[0]; d.party != 3 || !bytes.Equal(d.payload, a) {
		t.Fatalf("party %d delivered %q after the fetch", d.party, d.payload)
	}
	// The REQ reached the corrupted sender too, carrying the certificate.
	var req cbc.CertBody
	if err := wire.UnmarshalBody(b.next("REQ").Payload, &req); err != nil || req.Digest != digest || !bytes.Equal(req.Cert, cert) {
		t.Fatalf("REQ carries %x (%v), want the certificate for A", req.Digest[:4], err)
	}
	noFurtherDelivery(t, c, ch)
	for to := 0; to < 3; to++ {
		if n := sched.count("REQ", to); n > 1 {
			t.Fatalf("party %d was sent %d REQs", to, n)
		}
	}
	if n := counter(c, 3, "cbc.fetch.sent"); n != 1 {
		t.Fatalf("cbc.fetch.sent = %d, want 1", n)
	}
}

// countingScheme counts certificate verifications.
type countingScheme struct {
	thresig.Scheme
	verifies atomic.Int64
}

func (s *countingScheme) Verify(msg, sig []byte) error {
	s.verifies.Add(1)
	return s.Scheme.Verify(msg, sig)
}

// TestForgedCertificatesRejectedThenFloodIsFree: forged, other-instance
// and other-digest certificates in FINAL, REQ, ANS and Certify are each
// checked, counted and change nothing; once the real certificate is in, a
// flood of 800 more FINAL/REQ/ANS costs no further verification and the
// requester is served once.
func TestForgedCertificatesRejectedThenFloodIsFree(t *testing.T) {
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Seed: 17, Observe: true, Corrupted: []int{0}})
	ch := make(chan delivery, 16)
	scheme := &countingScheme{Scheme: c.Pub.QuorumSig()}
	spawnAll(c, 0, "real", []int{1, 2}, ch, nil)
	spawnAll(c, 0, "other", []int{1, 2, 3}, ch, nil)
	victim := newCBC(cbc.Config{
		Router: c.Routers[3], Struct: c.Struct, Instance: cbc.InstanceID(0, "real"), Sender: 0,
		Scheme: scheme, Key: c.Secrets[3].SigQuorum,
		Deliver: func(p, cert []byte) { ch <- delivery{party: 3, payload: p, cert: cert} },
	})
	real, elsewhere := cbc.InstanceID(0, "real"), cbc.InstanceID(0, "other")
	b := newByzantine(t, c)

	a := []byte("payload-A")
	digest, cert := b.certify(real, a, 1, 2, 3)
	_, certElsewhere := b.certify(elsewhere, a, 1, 2, 3)
	wrong := sha256.Sum256([]byte("payload-B"))
	garbage := []byte("not a certificate")

	forged := []struct {
		msgType string
		body    any
	}{
		{"FINAL", cbc.CertBody{Digest: digest, Cert: garbage}},
		{"FINAL", cbc.CertBody{Digest: digest, Cert: certElsewhere}},
		{"FINAL", cbc.CertBody{Digest: wrong, Cert: cert}},
		{"REQ", cbc.CertBody{Digest: digest, Cert: garbage}},
		{"REQ", cbc.CertBody{Digest: wrong, Cert: cert}},
		{"ANS", cbc.AnsBody{Payload: a, Cert: certElsewhere}},
		{"ANS", cbc.AnsBody{Payload: []byte("payload-B"), Cert: cert}},
	}
	for _, f := range forged {
		b.send(3, real, f.msgType, f.body)
	}
	c.Routers[3].DoSync(func() { victim.Certify(digest, garbage) })
	rejected := int64(len(forged) + 1)
	waitCounter(t, c, 3, "cbc.cert.rejected", rejected)
	if n := scheme.verifies.Load(); n != rejected {
		t.Fatalf("%d verifications for %d forged certificates", n, rejected)
	}
	noFurtherDelivery(t, c, ch)

	b.send(3, real, "FINAL", cbc.CertBody{Digest: digest, Cert: cert})
	if d := waitDeliveries(t, ch, 1)[0]; d.party != 3 || !bytes.Equal(d.payload, a) {
		t.Fatalf("party %d delivered %q", d.party, d.payload)
	}
	// The two REQs it could not serve were remembered in one bit: one ANS.
	var ans cbc.AnsBody
	if err := wire.UnmarshalBody(b.next("ANS").Payload, &ans); err != nil || !bytes.Equal(ans.Payload, a) ||
		cbc.VerifyCertificate(c.Pub.QuorumSig(), real, ans.Payload, ans.Cert) != nil {
		t.Fatalf("the remembered REQ was answered with %q (%v)", ans.Payload, err)
	}
	verified := scheme.verifies.Load()

	const flood = 800
	handled := c.Regs[3].Snapshot().Histograms["router.dispatch.latency"].Count
	for i := 0; i < flood; i++ {
		f := forged[i%len(forged)]
		if i%2 == 0 { // every other one is perfectly valid
			f.body = map[string]any{
				"FINAL": cbc.CertBody{Digest: digest, Cert: cert},
				"REQ":   cbc.CertBody{Digest: digest, Cert: cert},
				"ANS":   cbc.AnsBody{Payload: a, Cert: cert},
			}[f.msgType]
		}
		b.send(3, real, f.msgType, f.body)
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.Regs[3].Snapshot().Histograms["router.dispatch.latency"].Count < handled+flood {
		if time.Now().After(deadline) {
			t.Fatal("the flood was never dispatched")
		}
		time.Sleep(time.Millisecond)
	}
	if n := scheme.verifies.Load(); n != verified {
		t.Fatalf("the flood cost %d certificate verifications", n-verified)
	}
	if n := counter(c, 3, "cbc.fetch.served"); n != 1 {
		t.Fatalf("cbc.fetch.served = %d: the requester was served more than once", n)
	}
	if n := counter(c, 3, "cbc.cert.rejected"); n != rejected {
		t.Fatalf("cbc.cert.rejected went from %d to %d after delivery", rejected, n)
	}
	noFurtherDelivery(t, c, ch)
}

// TestBareReqAnsweredAfterCertification: a REQ without a certificate
// reaches a holder that is not certified yet. It is remembered, not
// dropped, and answered when a later message — here the FINAL, held back
// until the REQ is in — certifies the holder.
func TestBareReqAnsweredAfterCertification(t *testing.T) {
	sched := newHoldScheduler(19, func(s *holdScheduler, m *wire.Message) bool {
		return m.Type == "FINAL" && m.To == 3 && s.saw("REQ", 3) == 0
	})
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Scheduler: sched, Observe: true, Corrupted: []int{0}})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 1, "ask-early", []int{1, 2, 3}, ch, nil)
	instance := cbc.InstanceID(1, "ask-early")
	b := newByzantine(t, c)

	msg := []byte("asked for before it was certified")
	if err := insts[1].Start(msg); err != nil {
		t.Fatal(err)
	}
	b.send(3, instance, "REQ", cbc.CertBody{})
	waitDeliveries(t, ch, 3)
	for {
		m := b.next("ANS")
		if m.From != 3 {
			continue
		}
		var ans cbc.AnsBody
		if err := wire.UnmarshalBody(m.Payload, &ans); err != nil || !bytes.Equal(ans.Payload, msg) ||
			cbc.VerifyCertificate(c.Pub.QuorumSig(), instance, ans.Payload, ans.Cert) != nil {
			t.Fatalf("party 3 answered %q (%v)", ans.Payload, err)
		}
		break
	}
	if n := counter(c, 3, "cbc.fetch.served"); n != 1 {
		t.Fatalf("cbc.fetch.served = %d, want 1", n)
	}
}

// TestByzantineShareBeforeHonestOnes: the quorum key is a certificate of
// Ed25519 signatures, checked one at a time as the sender combines.
// Corrupted party 3's share — a valid signature on another statement —
// reaches the sender before any honest peer's, so the first combine
// includes it and falls short. The sender drops it, counting one
// cbc.share.rejected, and certifies from the three honest shares, and the
// FINAL verifies at every honest party.
func TestByzantineShareBeforeHonestOnes(t *testing.T) {
	sched := newHoldScheduler(29, func(s *holdScheduler, m *wire.Message) bool {
		return m.Type == "SHARE" && m.To == 0 && (m.From == 1 || m.From == 2) && s.saw("SHARE", 0) < 2
	})
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Scheduler: sched, Corrupted: []int{3}, Observe: true})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "byz-share", []int{0, 1, 2}, ch, nil)
	instance := cbc.InstanceID(0, "byz-share")
	msg := []byte("certified from honest shares")
	if err := insts[0].Start(msg); err != nil {
		t.Fatal(err)
	}
	// The sender's own share is the first SHARE it sees; the corrupted one
	// goes out once the START has applied (its SEND is on the wire).
	deadline := time.Now().Add(30 * time.Second)
	for sched.count("SEND", 1)+sched.count("SEND", 2) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the sender never sent its SEND")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := c.Pub.QuorumSig().(*thresig.CertScheme); !ok {
		t.Fatalf("quorum key is a %T, want a certificate", c.Pub.QuorumSig())
	}
	wrong, err := c.Pub.QuorumSig().SignShare(c.Secrets[3].SigQuorum,
		cbc.SignedStatement(instance, sha256.Sum256([]byte("another payload"))), rand.Reader)
	if err != nil || len(wrong.Data) != ed25519.SignatureSize {
		t.Fatalf("corrupted share: %d B, %v", len(wrong.Data), err)
	}
	c.Net.Endpoint(3).Send(wire.Message{To: 0, Protocol: cbc.Protocol, Instance: instance,
		Type: "SHARE", Payload: wire.MustMarshalBody(struct{ Share thresig.Share }{wrong})})
	for _, d := range waitDeliveries(t, ch, 3) {
		if !bytes.Equal(d.payload, msg) {
			t.Fatalf("party %d delivered %q", d.party, d.payload)
		}
		if err := cbc.VerifyCertificate(c.Pub.QuorumSig(), instance, d.payload, d.cert); err != nil {
			t.Fatalf("party %d: %v", d.party, err)
		}
		if signers := certSigners(d.cert); signers != adversary.SetOf(0, 1, 2) {
			t.Fatalf("party %d delivered a certificate signed by %v, want the honest three", d.party, signers)
		}
	}
	if n := sched.count("FINAL", 1) + sched.count("FINAL", 2); n != 2 {
		t.Fatalf("%d FINALs reached the honest peers, want 2", n)
	}
	if n := counter(c, 0, "cbc.share.rejected"); n != 1 {
		t.Fatalf("cbc.share.rejected = %d, want 1", n)
	}
}

// certSigners reads the signer set of a certificate at n ≤ 8: its first
// byte is the signer bitmap.
func certSigners(cert []byte) adversary.Set { return adversary.Set(cert[0]) }

// TestReqFromClientIdUnanswered: a client endpoint is not a party of the
// broadcast; its REQ never reaches the instance.
func TestReqFromClientIdUnanswered(t *testing.T) {
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Seed: 23, Clients: 1, Observe: true})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "servers-only", []int{0, 1, 2, 3}, ch, nil)
	if err := insts[0].Start([]byte("between servers")); err != nil {
		t.Fatal(err)
	}
	waitDeliveries(t, ch, 4)
	c.Net.Endpoint(4).Send(wire.Message{
		To: 0, Protocol: cbc.Protocol, Instance: cbc.InstanceID(0, "servers-only"),
		Type: "REQ", Payload: wire.MustMarshalBody(cbc.CertBody{}),
	})
	waitCounter(t, c, 0, "router.dropped.nonserver", 1)
	if n := counter(c, 0, "cbc.fetch.served"); n != 0 {
		t.Fatalf("party 0 answered a client's REQ")
	}
}

// TestOwnShareBytesOnlyForTheirDigest: a party takes the certificate
// entry at its own index unchecked only for the digest it signed.
// Corrupted sender 0 c-broadcasts A to party 3 and B to party 1, then
// sends party 3 a FINAL for B whose certificate holds its own and party
// 1's signatures on B and, at index 3, party 3's share bytes on A. Party 3
// checks that entry, rejects the certificate and holds none; a FINAL for
// A with the same bytes at index 3 then certifies A, and party 3
// delivers it.
func TestOwnShareBytesOnlyForTheirDigest(t *testing.T) {
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1),
		testutil.Options{Seed: 23, Observe: true, Corrupted: []int{0}})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "own-bytes", []int{1, 2, 3}, ch, nil)
	instance := cbc.InstanceID(0, "own-bytes")
	b := newByzantine(t, c)
	scheme := c.Pub.QuorumSig()
	shareOf := func(to int, payload []byte) []byte {
		b.send(to, instance, "SEND", struct{ Payload []byte }{payload})
		for {
			m := b.next("SHARE")
			var body struct{ Share thresig.Share }
			if err := wire.UnmarshalBody(m.Payload, &body); err != nil {
				t.Fatal(err)
			}
			if m.From == to {
				return body.Share.Data
			}
		}
	}
	sign0 := func(digest [32]byte) []byte {
		sh, err := scheme.SignShare(c.Secrets[0].SigQuorum, cbc.SignedStatement(instance, digest), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return sh.Data
	}
	a, other := []byte("payload-A"), []byte("payload-B")
	digestA, digestB := sha256.Sum256(a), sha256.Sum256(other)
	own := shareOf(3, a)
	forged := append(append(append([]byte{0b1011}, sign0(digestB)...), shareOf(1, other)...), own...)
	b.send(3, instance, "FINAL", cbc.CertBody{Digest: digestB, Cert: forged})
	waitCounter(t, c, 3, "cbc.cert.rejected", 1)
	c.Routers[3].DoSync(func() {
		if _, _, ok := insts[3].Certificate(); ok {
			t.Error("party 3 holds a certificate for B")
		}
	})

	cert := append(append(append([]byte{0b1101}, sign0(digestA)...), shareOf(2, a)...), own...)
	b.send(3, instance, "FINAL", cbc.CertBody{Digest: digestA, Cert: cert})
	if d := waitDeliveries(t, ch, 1)[0]; d.party != 3 || !bytes.Equal(d.payload, a) {
		t.Fatalf("party %d delivered %q", d.party, d.payload)
	}
	if n := counter(c, 3, "cbc.cert.rejected"); n != 1 {
		t.Fatalf("cbc.cert.rejected = %d, want 1", n)
	}
}
