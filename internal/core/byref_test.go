package core_test

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/core"
	"sintra/internal/obs"
	"sintra/internal/testutil"
	"sintra/internal/wire"
)

// recordingService answers with the digest of the applied request —
// small responses that prove the full bytes arrived intact — and keeps
// the sequence of requests it applied.
type recordingService struct {
	mu      sync.Mutex
	applied [][]byte
}

func (s *recordingService) Apply(seq int64, request []byte) []byte {
	s.mu.Lock()
	s.applied = append(s.applied, request)
	s.mu.Unlock()
	d := sha256.Sum256(request)
	return d[:]
}

func (s *recordingService) history() [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]byte(nil), s.applied...)
}

// byRefCluster starts four replicas whose proposals reference anything
// over 512 bytes, each with its own registry.
func byRefCluster(t *testing.T, seed int64, mode core.Mode) (*testutil.Cluster, []*recordingService, []*obs.Registry) {
	t.Helper()
	c := coreCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Seed: seed})
	services := make([]*recordingService, 4)
	regs := make([]*obs.Registry, 4)
	nodes := make([]*core.Node, 4)
	for i := range nodes {
		services[i], regs[i] = &recordingService{}, obs.NewRegistry()
		n, err := core.NewNode(core.NodeConfig{
			Public:      c.Pub,
			Secret:      c.Secrets[i],
			Transport:   c.Net.Endpoint(i),
			ServiceName: "test",
			Service:     services[i],
			Mode:        mode,
			Observer:    regs[i],
			Tuning:      core.Tuning{CodedThreshold: 512},
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
	return c, services, regs
}

// waitApplied blocks until every replica applied want requests and
// checks that they applied the same ones in the same order.
func waitApplied(t *testing.T, services []*recordingService, want int) [][]byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for _, s := range services {
		for len(s.history()) < want {
			if time.Now().After(deadline) {
				t.Fatalf("a replica applied %d of %d requests", len(s.history()), want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	ref := services[0].history()
	for i, s := range services[1:] {
		got := s.history()
		if len(got) != len(ref) {
			t.Fatalf("replica %d applied %d requests, replica 0 applied %d", i+1, len(got), len(ref))
		}
		for k := range ref {
			if !bytes.Equal(got[k], ref[k]) {
				t.Fatalf("replicas 0 and %d applied different requests at position %d", i+1, k)
			}
		}
	}
	return ref
}

// TestLargeRequestsReferenced drives a request of 100 000 bytes and one of
// 900 through the full stack in both modes, with a reference threshold
// below either: every proposal names the request, or its ciphertext, by
// digest, whatever its size. The client gets a threshold-signed answer
// over the intact bytes and all replicas apply the same requests in the
// same order.
func TestLargeRequestsReferenced(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeAtomic, core.ModeSecureCausal} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			c, services, regs := byRefCluster(t, 61, mode)
			client := core.NewClient(c.Pub, c.Net.Endpoint(4), "test", mode)
			defer client.Close()
			rng := rand.New(rand.NewSource(62))
			for _, size := range []int{100_000, 900} {
				req := make([]byte, size)
				rng.Read(req)
				ans, err := invokeWithin(client, req, 120*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if want := sha256.Sum256(req); !bytes.Equal(ans.Result, want[:]) {
					t.Fatal("service answered over different bytes than submitted")
				}
				if err := core.VerifyAnswer(c.Pub, "test", ans.ReqID, ans.Result, ans.Signature); err != nil {
					t.Fatalf("answer signature: %v", err)
				}
			}
			waitApplied(t, services, 2)
			var referenced int64
			for _, reg := range regs {
				referenced += reg.Counter("abc.coded.proposals").Value()
			}
			if referenced == 0 {
				t.Fatal("no proposal referenced a payload")
			}
		})
	}
}

// TestRequestSentToOneServerIsPulled: a client that reaches one server
// only — the paper's client sends to all — still gets its request applied
// by every replica: the one holder proposes it by digest and the other
// three pull it from there.
func TestRequestSentToOneServerIsPulled(t *testing.T) {
	c, services, regs := byRefCluster(t, 63, core.ModeAtomic)
	body := make([]byte, 900) // over the reference threshold
	rand.New(rand.NewSource(64)).Read(body)
	reqID := [16]byte{1, 2, 3}
	type envelope struct {
		ReqID [16]byte
		Body  []byte
	}
	type request struct {
		ReqID   [16]byte
		Payload []byte
	}
	c.Net.Endpoint(4).Send(wire.Message{
		To: 2, Protocol: "client", Instance: "test", Type: "REQUEST",
		Payload: wire.MustMarshalBody(request{reqID, wire.MustMarshalBody(envelope{reqID, body})}),
	})
	applied := waitApplied(t, services, 1)
	if !bytes.Equal(applied[0], body) {
		t.Fatal("the replicas applied something other than the request")
	}
	var served, sent int64
	for i, reg := range regs {
		served += reg.Counter("abc.fetch.served").Value()
		if i != 2 {
			sent += reg.Counter("abc.fetch.sent").Value()
		}
	}
	if got := regs[2].Counter("abc.fetch.served").Value(); got != 3 {
		t.Errorf("the one holder answered %d FETCHes, want one per other replica", got)
	}
	// A list that outruns the holder's answer makes a replica ask the
	// others too; whoever has the payload by then answers once more.
	if served < 3 || served > 9 || sent < 3 {
		t.Errorf("abc.fetch.served = %d (want 3..9), abc.fetch.sent by the three others = %d (want >= 3)", served, sent)
	}
	if v := regs[2].Counter("abc.fetch.sent").Value(); v != 0 {
		t.Errorf("the holder sent %d FETCHes", v)
	}
}
