package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/core"
	"sintra/internal/service"
	"sintra/internal/testutil"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func dirApply(t *testing.T, d *service.Directory, seq int64, req service.DirectoryRequest) service.DirectoryResponse {
	t.Helper()
	var resp service.DirectoryResponse
	if err := json.Unmarshal(d.Apply(seq, mustJSON(t, req)), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func notaryApply(t *testing.T, n *service.Notary, seq int64, req service.NotaryRequest) service.NotaryResponse {
	t.Helper()
	var resp service.NotaryResponse
	if err := json.Unmarshal(n.Apply(seq, mustJSON(t, req)), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// invokeWithin executes one request with a plain timeout.
func invokeWithin(c *core.Client, body []byte, timeout time.Duration) (core.Answer, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.InvokeContext(ctx, body)
}

func TestDirectoryIssue(t *testing.T) {
	d := service.NewDirectory()
	resp := dirApply(t, d, 7, service.DirectoryRequest{Op: service.OpIssue, Name: "alice", PubKey: []byte{1, 2, 3}})
	if !resp.OK || resp.Certificate == nil {
		t.Fatalf("issue failed: %+v", resp)
	}
	if resp.Certificate.Serial != 1 || resp.Certificate.Name != "alice" || resp.Certificate.Seq != 7 {
		t.Fatalf("bad certificate: %+v", resp.Certificate)
	}
	// Serials increase.
	resp2 := dirApply(t, d, 8, service.DirectoryRequest{Op: service.OpIssue, Name: "bob", PubKey: []byte{4}})
	if resp2.Certificate.Serial != 2 {
		t.Fatalf("serial = %d", resp2.Certificate.Serial)
	}
}

func TestDirectoryIssueValidation(t *testing.T) {
	d := service.NewDirectory()
	if resp := dirApply(t, d, 1, service.DirectoryRequest{Op: service.OpIssue}); resp.OK {
		t.Fatal("issue without name accepted")
	}
	if resp := dirApply(t, d, 1, service.DirectoryRequest{Op: "bogus"}); resp.OK {
		t.Fatal("unknown op accepted")
	}
	var resp service.DirectoryResponse
	if err := json.Unmarshal(d.Apply(1, []byte("{{{")), &resp); err != nil || resp.OK {
		t.Fatal("malformed request accepted")
	}
}

func TestDirectoryPutGet(t *testing.T) {
	d := service.NewDirectory()
	if resp := dirApply(t, d, 1, service.DirectoryRequest{Op: service.OpPut, Key: "dns:example", Value: "10.0.0.1"}); !resp.OK || resp.Version != 1 {
		t.Fatalf("put: %+v", resp)
	}
	if resp := dirApply(t, d, 2, service.DirectoryRequest{Op: service.OpPut, Key: "dns:example", Value: "10.0.0.2"}); resp.Version != 2 {
		t.Fatalf("version = %d", resp.Version)
	}
	resp := dirApply(t, d, 3, service.DirectoryRequest{Op: service.OpGet, Key: "dns:example"})
	if !resp.Found || resp.Value != "10.0.0.2" || resp.Version != 2 {
		t.Fatalf("get: %+v", resp)
	}
	if resp := dirApply(t, d, 4, service.DirectoryRequest{Op: service.OpGet, Key: "missing"}); resp.Found {
		t.Fatal("missing key found")
	}
	if resp := dirApply(t, d, 5, service.DirectoryRequest{Op: service.OpPut}); resp.OK {
		t.Fatal("put without key accepted")
	}
}

func TestDirectoryDeterminism(t *testing.T) {
	// Two replicas applying the same request sequence produce identical
	// responses — the foundation of state machine replication.
	reqs := [][]byte{
		mustJSON(t, service.DirectoryRequest{Op: service.OpIssue, Name: "a", PubKey: []byte{1}}),
		mustJSON(t, service.DirectoryRequest{Op: service.OpPut, Key: "k", Value: "v"}),
		mustJSON(t, service.DirectoryRequest{Op: service.OpGet, Key: "k"}),
		[]byte("junk"),
		mustJSON(t, service.DirectoryRequest{Op: service.OpIssue, Name: "b", PubKey: []byte{2}}),
	}
	d1, d2 := service.NewDirectory(), service.NewDirectory()
	for i, req := range reqs {
		r1 := d1.Apply(int64(i), req)
		r2 := d2.Apply(int64(i), req)
		if !bytes.Equal(r1, r2) {
			t.Fatalf("replicas diverged at %d: %s vs %s", i, r1, r2)
		}
	}
}

func TestNotaryRegisterAndLookup(t *testing.T) {
	n := service.NewNotary()
	doc := []byte("patent application: perpetual motion")
	resp := notaryApply(t, n, 1, service.NotaryRequest{Op: service.OpRegister, Document: doc})
	if !resp.OK || resp.Seq != 1 || resp.Existing {
		t.Fatalf("register: %+v", resp)
	}
	// Re-registering returns the ORIGINAL sequence number.
	resp2 := notaryApply(t, n, 2, service.NotaryRequest{Op: service.OpRegister, Document: doc})
	if !resp2.Existing || resp2.Seq != 1 {
		t.Fatalf("re-register: %+v", resp2)
	}
	// A different document gets the next number.
	resp3 := notaryApply(t, n, 3, service.NotaryRequest{Op: service.OpRegister, Document: []byte("other")})
	if resp3.Seq != 2 {
		t.Fatalf("second doc seq = %d", resp3.Seq)
	}
	look := notaryApply(t, n, 4, service.NotaryRequest{Op: service.OpLookup, Document: doc})
	if !look.Found || look.Seq != 1 {
		t.Fatalf("lookup: %+v", look)
	}
	if missing := notaryApply(t, n, 5, service.NotaryRequest{Op: service.OpLookup, Document: []byte("never")}); missing.Found {
		t.Fatal("unregistered doc found")
	}
}

func TestNotaryValidation(t *testing.T) {
	n := service.NewNotary()
	if resp := notaryApply(t, n, 1, service.NotaryRequest{Op: service.OpRegister}); resp.OK {
		t.Fatal("empty document accepted")
	}
	if resp := notaryApply(t, n, 1, service.NotaryRequest{Op: "bad", Document: []byte("x")}); resp.OK {
		t.Fatal("unknown op accepted")
	}
}

// TestCAEndToEnd runs the CA over the full stack: four replicas, a client
// obtaining a certificate whose threshold signature verifies.
func TestCAEndToEnd(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	all := []int{0, 1, 2, 3}
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 2, Corrupted: all, Clients: 1})
	nodes := make([]*core.Node, 4)
	for i := 0; i < 4; i++ {
		n, err := core.NewNode(core.NodeConfig{
			Public:      c.Pub,
			Secret:      c.Secrets[i],
			Transport:   c.Net.Endpoint(i),
			ServiceName: "ca",
			Service:     service.NewDirectory(),
			Mode:        core.ModeAtomic,
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
	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "ca", core.ModeAtomic)
	defer client.Close()

	req := mustJSON(t, service.DirectoryRequest{Op: service.OpIssue, Name: "alice", PubKey: []byte("alice-pk")})
	ans, err := invokeWithin(client, req, 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var resp service.DirectoryResponse
	if err := json.Unmarshal(ans.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Certificate == nil || resp.Certificate.Name != "alice" {
		t.Fatalf("bad certificate: %s", ans.Result)
	}
	if len(ans.Signature) == 0 {
		t.Fatal("no threshold signature on the certificate")
	}
}
