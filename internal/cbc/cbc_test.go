package cbc_test

import (
	"bytes"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/cbc"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

type delivery struct {
	party   int
	payload []byte
	cert    []byte
}

func newCBC(cfg cbc.Config) *cbc.CBC {
	var inst *cbc.CBC
	cfg.Router.DoSync(func() { inst = cbc.New(cfg) })
	return inst
}

func spawnAll(c *testutil.Cluster, sender int, tag string, parties []int, ch chan delivery, pred func([]byte) bool) map[int]*cbc.CBC {
	out := make(map[int]*cbc.CBC, len(parties))
	for _, i := range parties {
		i := i
		out[i] = newCBC(cbc.Config{
			Router:    c.Routers[i],
			Struct:    c.Struct,
			Instance:  cbc.InstanceID(sender, tag),
			Sender:    sender,
			Scheme:    c.Pub.QuorumSig(),
			Key:       c.Secrets[i].SigQuorum,
			Predicate: pred,
			Deliver: func(p, cert []byte) {
				ch <- delivery{party: i, payload: p, cert: cert}
			},
		})
	}
	return out
}

func waitDeliveries(t *testing.T, ch chan delivery, want int) []delivery {
	t.Helper()
	var out []delivery
	deadline := time.After(30 * time.Second)
	for len(out) < want {
		select {
		case d := <-ch:
			out = append(out, d)
		case <-deadline:
			t.Fatalf("timeout: %d of %d deliveries", len(out), want)
		}
	}
	return out
}

func TestConsistentBroadcastDelivers(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "m", []int{0, 1, 2, 3}, ch, nil)
	msg := []byte("consistent broadcast payload")
	if err := insts[0].Start(msg); err != nil {
		t.Fatal(err)
	}
	got := waitDeliveries(t, ch, 4)
	for _, d := range got {
		if !bytes.Equal(d.payload, msg) {
			t.Fatalf("party %d delivered wrong payload", d.party)
		}
		// The certificate must be transferable: any third party can check it.
		if err := cbc.VerifyCertificate(c.Pub.QuorumSig(), cbc.InstanceID(0, "m"), d.payload, d.cert); err != nil {
			t.Fatalf("certificate not transferable: %v", err)
		}
	}
}

func TestCertificateRejectsWrongPayload(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "m", []int{0, 1, 2, 3}, ch, nil)
	if err := insts[0].Start([]byte("real")); err != nil {
		t.Fatal(err)
	}
	d := waitDeliveries(t, ch, 1)[0]
	if err := cbc.VerifyCertificate(c.Pub.QuorumSig(), cbc.InstanceID(0, "m"), []byte("fake"), d.cert); err == nil {
		t.Fatal("certificate verified for a different payload")
	}
	if err := cbc.VerifyCertificate(c.Pub.QuorumSig(), cbc.InstanceID(0, "other"), d.payload, d.cert); err == nil {
		t.Fatal("certificate verified for a different instance")
	}
}

func TestUniquenessAgainstEquivocatingSender(t *testing.T) {
	// A corrupted sender sends payload A to parties 1,2 and payload B to
	// party 3, then tries to finalize both. Honest parties sign only the
	// first payload they see, so at most one certificate can form; all
	// deliveries must agree.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 9, Corrupted: []int{0}})
	ch := make(chan delivery, 16)
	spawnAll(c, 0, "eq", []int{1, 2, 3}, ch, nil)
	instance := cbc.InstanceID(0, "eq")
	sendRaw := func(to int, payload []byte) {
		c.Net.Endpoint(0).Send(wire.Message{
			To: to, Protocol: cbc.Protocol, Instance: instance,
			Type: "SEND", Payload: wire.MustMarshalBody(struct{ Payload []byte }{payload}),
		})
	}
	sendRaw(1, []byte("payload-A"))
	sendRaw(2, []byte("payload-A"))
	sendRaw(3, []byte("payload-B"))
	// Collect the shares the honest parties send back and try to combine
	// them as the corrupted sender would.
	scheme := c.Pub.QuorumSig()
	var sharesA, sharesB []thresig.Share
	deadline := time.After(20 * time.Second)
	for len(sharesA)+len(sharesB) < 3 {
		var m wire.Message
		var ok bool
		done := make(chan struct{})
		go func() { m, ok = c.Net.Endpoint(0).Recv(); close(done) }()
		select {
		case <-done:
		case <-deadline:
			t.Fatal("timeout collecting shares")
		}
		if !ok {
			t.Fatal("network stopped")
		}
		if m.Type != "SHARE" {
			continue
		}
		var body struct{ Share thresig.Share }
		if err := wire.UnmarshalBody(m.Payload, &body); err != nil {
			t.Fatal(err)
		}
		if m.From == 3 {
			sharesB = append(sharesB, body.Share)
		} else {
			sharesA = append(sharesA, body.Share)
		}
	}
	// B can never finalize: only one share exists for it (needs 3 of 4).
	if _, err := scheme.Combine([]byte("anything"), sharesB); err == nil {
		t.Fatal("combined a certificate from a single share")
	}
	if !scheme.Sufficient(adversary.SetOf(1, 2)) {
		// Shares from parties 1 and 2 alone are not a quorum in 4/1.
		t.Log("as expected: two shares are insufficient for a quorum of 3")
	}
}

func TestPredicateBlocksSigning(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "p", []int{0, 1, 2, 3}, ch, func(p []byte) bool {
		return len(p) < 4
	})
	if err := insts[0].Start([]byte("payload violating the predicate")); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-ch:
		t.Fatalf("party %d delivered an invalid payload", d.party)
	case <-time.After(400 * time.Millisecond):
	}
}

func TestFetchAfterDelivery(t *testing.T) {
	// Party 3 does not participate in the broadcast but later fetches the
	// certified payload from its peers.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{})
	ch := make(chan delivery, 16)
	insts := spawnAll(c, 0, "f", []int{0, 1, 2}, ch, nil)
	msg := []byte("fetch me")
	if err := insts[0].Start(msg); err != nil {
		t.Fatal(err)
	}
	waitDeliveries(t, ch, 3)
	late := spawnAll(c, 0, "f", []int{3}, ch, nil)
	c.Routers[3].DoSync(func() { late[3].Fetch() })
	d := waitDeliveries(t, ch, 1)[0]
	if d.party != 3 || !bytes.Equal(d.payload, msg) {
		t.Fatalf("late fetch delivered wrong result: party %d", d.party)
	}
}

func TestCBCWithCertScheme(t *testing.T) {
	// Same protocol over a generalized adversary structure using the
	// certificate signature scheme.
	st := adversary.Example1()
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 5})
	ch := make(chan delivery, 32)
	honest := []int{4, 5, 6, 7, 8} // class a (4 servers) is crashed
	insts := spawnAll(c, 4, "g", honest, ch, nil)
	msg := []byte("general adversary echo broadcast")
	if err := insts[4].Start(msg); err != nil {
		t.Fatal(err)
	}
	got := waitDeliveries(t, ch, len(honest))
	for _, d := range got {
		if !bytes.Equal(d.payload, msg) {
			t.Fatal("wrong payload")
		}
		if err := cbc.VerifyCertificate(c.Pub.QuorumSig(), cbc.InstanceID(4, "g"), d.payload, d.cert); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNonSenderCannotStart(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{})
	inst := newCBC(cbc.Config{
		Router:   c.Routers[1],
		Struct:   c.Struct,
		Instance: cbc.InstanceID(0, "m"),
		Sender:   0,
		Scheme:   c.Pub.QuorumSig(),
		Key:      c.Secrets[1].SigQuorum,
	})
	if err := inst.Start([]byte("x")); err == nil {
		t.Fatal("non-sender started")
	}
}

func TestInstanceIDRoundTrip(t *testing.T) {
	id := cbc.InstanceID(3, "mvba/7")
	s, err := cbc.SenderOf(id)
	if err != nil || s != 3 {
		t.Fatalf("SenderOf = %d, %v", s, err)
	}
	if _, err := cbc.SenderOf("zz"); err == nil {
		t.Fatal("malformed accepted")
	}
}
