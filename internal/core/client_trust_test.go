package core

import (
	"crypto/rand"
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/merkle"
	"sintra/internal/testutil"
	"sintra/internal/trust"
)

// TestClientTrustObserver covers the client option WithTrust: the client
// judges answers through the eyes of the party whose assumptions it
// adopts. Party 3 of the README's asymmetric example believes {0, 2} may
// fail together, so an answer backed by servers 0 and 2 alone — enough for
// the default client, which trusts the dealt t=1 structure — is not
// accepted, and the same answer backed by 0, 2 and 1 is.
func TestClientTrustObserver(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Corrupted: []int{0, 1, 2, 3}, Clients: 2})
	asym, err := trust.NewAsymmetric(4, []trust.FailProne{
		trust.Threshold(1), trust.Threshold(1), trust.Threshold(1),
		trust.General(adversary.SetOf(0, 2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	plain := NewClient(c.Pub, c.Net.Endpoint(4), "test", ModeAtomic)
	defer plain.Close()
	wary := NewClient(c.Pub, c.Net.Endpoint(5), "test", ModeAtomic, WithTrust(asym, 3))
	defer wary.Close()

	reqID := [16]byte{1}
	result := []byte("the answer")
	// A round that ordered this request alone: a one-leaf tree.
	root := merkle.NewTree([][]byte{answerStatement("test", reqID, result)}).Root()
	// answered feeds the client one honest server's RESPONSE and reports
	// whether the client has accepted an answer by then.
	answered := func(cl *Client, pending *call, server int) bool {
		t.Helper()
		share, err := c.Pub.AnswerSig().SignShare(c.Secrets[server].SigAnswer,
			rootStatement("test", 1, root), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		cl.onResponse(server, responseBody{ReqID: reqID, Seq: 1, Result: result, Share: share, Count: 1})
		select {
		case a := <-pending.ch:
			if err := VerifyAnswer(c.Pub, "test", a.ReqID, a.Result, a.Signature); err != nil {
				t.Fatalf("accepted answer does not verify: %v", err)
			}
			return true
		default:
			return false
		}
	}
	expect := func(cl *Client) *call {
		pending := &call{ch: make(chan Answer, 1)}
		cl.mu.Lock()
		cl.pending[reqID] = pending
		cl.mu.Unlock()
		return pending
	}

	p := expect(plain)
	if answered(plain, p, 0) {
		t.Fatal("default client accepted a single server's word")
	}
	if !answered(plain, p, 2) {
		t.Fatal("default client did not accept t+1 = 2 agreeing servers")
	}

	w := expect(wary)
	if answered(wary, w, 0) || answered(wary, w, 2) {
		t.Fatal("client accepted an answer backed only by a set its observer considers corruptible")
	}
	if !answered(wary, w, 1) {
		t.Fatal("client did not accept once a server outside the observer's fail-prone set agreed")
	}
}
