package core_test

import (
	"crypto/sha256"
	"math/rand"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/core"
	"sintra/internal/testutil"
)

// digestService answers with the digest of the applied request, keeping
// responses small while proving the full request bytes arrived intact.
type digestService struct{}

func (digestService) Apply(seq int64, request []byte) []byte {
	d := sha256.Sum256(request)
	return d[:]
}

// TestLargeRequestCodedAndChunked drives a large client request through
// the full stack with aggressive coded-dissemination and chunking
// thresholds: the request splits into frames, the oversized batches go
// out as digest headers plus coded reliable broadcast, and the client
// still receives a threshold-signed answer over the intact bytes.
func TestLargeRequestCodedAndChunked(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := coreCluster(t, st, testutil.Options{Seed: 61})
	parties := []int{0, 1, 2, 3}
	nodes := make(map[int]*core.Node, len(parties))
	for _, i := range parties {
		n, err := core.NewNode(core.NodeConfig{
			Public:      c.Pub,
			Secret:      c.Secrets[i],
			Transport:   c.Net.Endpoint(i),
			ServiceName: "test",
			Service:     digestService{},
			Mode:        core.ModeAtomic,
			Tuning:      core.Tuning{CodedThreshold: 512, ChunkSize: 1024},
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

	client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", core.ModeAtomic)
	defer client.Close()

	req := make([]byte, 10_000)
	rand.New(rand.NewSource(62)).Read(req)
	ans, err := invokeWithin(client, req, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(req)
	if string(ans.Result) != string(want[:]) {
		t.Fatal("service answered over different bytes than submitted")
	}
	if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature); err != nil {
		t.Fatalf("answer signature: %v", err)
	}
}
