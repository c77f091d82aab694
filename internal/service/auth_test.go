package service_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/core"
	"sintra/internal/service"
	"sintra/internal/testutil"
)

func authApply(t *testing.T, a *service.Auth, seq int64, req service.AuthRequest) service.AuthResponse {
	t.Helper()
	var resp service.AuthResponse
	if err := json.Unmarshal(a.Apply(seq, mustJSON(t, req)), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAuthEnrollVerifyRevoke(t *testing.T) {
	a := service.NewAuth()
	if resp := authApply(t, a, 1, service.AuthRequest{Op: service.OpEnroll, User: "alice", Secret: []byte("hunter2")}); !resp.OK {
		t.Fatalf("enroll: %+v", resp)
	}
	if resp := authApply(t, a, 2, service.AuthRequest{Op: service.OpVerify, User: "alice", Secret: []byte("hunter2")}); !resp.Verified {
		t.Fatalf("correct secret rejected: %+v", resp)
	}
	if resp := authApply(t, a, 3, service.AuthRequest{Op: service.OpVerify, User: "alice", Secret: []byte("wrong")}); resp.Verified {
		t.Fatal("wrong secret verified")
	}
	if resp := authApply(t, a, 4, service.AuthRequest{Op: service.OpVerify, User: "nobody", Secret: []byte("x")}); resp.Verified || !resp.OK {
		t.Fatalf("unknown user: %+v", resp)
	}
	// Rotation replaces the credential.
	authApply(t, a, 5, service.AuthRequest{Op: service.OpEnroll, User: "alice", Secret: []byte("new-secret")})
	if resp := authApply(t, a, 6, service.AuthRequest{Op: service.OpVerify, User: "alice", Secret: []byte("hunter2")}); resp.Verified {
		t.Fatal("old secret still verifies after rotation")
	}
	// Revocation removes the principal.
	authApply(t, a, 7, service.AuthRequest{Op: service.OpRevoke, User: "alice"})
	if resp := authApply(t, a, 8, service.AuthRequest{Op: service.OpVerify, User: "alice", Secret: []byte("new-secret")}); resp.Verified {
		t.Fatal("revoked user verified")
	}
}

func TestAuthValidation(t *testing.T) {
	a := service.NewAuth()
	if resp := authApply(t, a, 1, service.AuthRequest{Op: service.OpEnroll, User: "x"}); resp.OK {
		t.Fatal("enroll without secret accepted")
	}
	if resp := authApply(t, a, 1, service.AuthRequest{Op: service.OpEnroll, Secret: []byte("s")}); resp.OK {
		t.Fatal("enroll without user accepted")
	}
	if resp := authApply(t, a, 1, service.AuthRequest{Op: "bogus", User: "x"}); resp.OK {
		t.Fatal("unknown op accepted")
	}
	var resp service.AuthResponse
	if err := json.Unmarshal(a.Apply(1, []byte("{")), &resp); err != nil || resp.OK {
		t.Fatal("malformed accepted")
	}
}

func TestAuthDeterminism(t *testing.T) {
	reqs := [][]byte{
		mustJSON(t, service.AuthRequest{Op: service.OpEnroll, User: "u", Secret: []byte("s")}),
		mustJSON(t, service.AuthRequest{Op: service.OpVerify, User: "u", Secret: []byte("s")}),
		mustJSON(t, service.AuthRequest{Op: service.OpVerify, User: "u", Secret: []byte("t")}),
		mustJSON(t, service.AuthRequest{Op: service.OpRevoke, User: "u"}),
	}
	a1, a2 := service.NewAuth(), service.NewAuth()
	for i, req := range reqs {
		if !bytes.Equal(a1.Apply(int64(i), req), a2.Apply(int64(i), req)) {
			t.Fatalf("replicas diverged at %d", i)
		}
	}
}

// TestAuthEndToEndConfidential runs the authentication service over
// secure causal atomic broadcast: credentials are threshold-encrypted by
// the client and the verdict carries the service's threshold signature —
// a portable, offline-verifiable token.
func TestAuthEndToEndConfidential(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	all := []int{0, 1, 2, 3}
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 3, Corrupted: all, Clients: 1})
	nodes := make([]*core.Node, 4)
	for i := 0; i < 4; i++ {
		n, err := core.NewNode(core.NodeConfig{
			Public:      c.Pub,
			Secret:      c.Secrets[i],
			Transport:   c.Net.Endpoint(i),
			ServiceName: "auth",
			Service:     service.NewAuth(),
			Mode:        core.ModeSecureCausal,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		go n.Run()
	}
	t.Cleanup(func() {
		c.Net.Stop()
		for _, n := range nodes {
			n.Stop()
		}
	})
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "auth", core.ModeSecureCausal)
	defer client.Close()

	enroll := mustJSON(t, service.AuthRequest{Op: service.OpEnroll, User: "alice", Secret: []byte("s3cr3t")})
	if _, err := invokeWithin(client, enroll, 90*time.Second); err != nil {
		t.Fatal(err)
	}
	verify := mustJSON(t, service.AuthRequest{Op: service.OpVerify, User: "alice", Secret: []byte("s3cr3t")})
	ans, err := invokeWithin(client, verify, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var resp service.AuthResponse
	if err := json.Unmarshal(ans.Result, &resp); err != nil || !resp.Verified {
		t.Fatalf("verdict: %s (%v)", ans.Result, err)
	}
	if err := core.VerifyAnswer(c.Pub, "auth", ans.ReqID, ans.Result, ans.Signature); err != nil {
		t.Fatalf("token signature: %v", err)
	}
}
