package abc_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/netsim"
	"sintra/internal/testutil"
)

// batchLog records the payloads Deliver saw between BatchEnd calls.
type batchLog struct {
	t       *testing.T
	mu      sync.Mutex
	open    []string
	batches [][]string
}

func (b *batchLog) deliver(_ int64, payload []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open = append(b.open, string(payload))
}

func (b *batchLog) end() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.open) == 0 {
		b.t.Error("BatchEnd closed an empty batch")
	}
	b.batches = append(b.batches, b.open)
	b.open = nil
}

// TestInstallReplaysBatches: a fresh party that installs a peer's
// SuffixSince gets, round by round and in order, the batches the peer's
// decides produced, and serves the same rounds in turn. Suffixes whose
// rounds do not match the payloads are refused before anything delivers.
func TestInstallReplaysBatches(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 37})
	parties := []int{0, 1, 2, 3}
	peer := &batchLog{t: t}
	h := newHarnessCfg(t, c, parties, func(cfg *abc.Config) {
		// Checkpointing wired: every party retains its delivery suffix.
		cfg.VerifyCheckpoint = func([]byte) (int64, bool) { return 0, false }
		if cfg.Router == c.Routers[0] {
			deliver := cfg.Deliver
			cfg.Deliver = func(seq int64, payload []byte) { peer.deliver(seq, payload); deliver(seq, payload) }
			cfg.BatchEnd = peer.end
		}
	})
	// Two waves, so the suffix spans at least two rounds.
	const per = 3
	for wave := 1; wave <= 2; wave++ {
		for _, i := range parties {
			for k := 0; k < per; k++ {
				if err := h.insts[i].Broadcast([]byte(fmt.Sprintf("req-%d-%d-%d", wave, i, k))); err != nil {
					t.Fatal(err)
				}
			}
		}
		h.waitLogs(t, []int{0}, wave*4*per, 120*time.Second)
	}
	var suffix [][]byte
	var rounds []int64
	var live int64
	// Behind the decide that delivered the last payload, so its batch is
	// closed too.
	c.Routers[0].DoSync(func() { suffix, rounds, live = h.insts[0].SuffixSince(0) })
	peer.mu.Lock()
	want := peer.batches
	peer.mu.Unlock()
	if len(suffix) != 8*per || len(want) < 2 || len(want) == len(suffix) {
		t.Fatalf("suffix of %d payloads in %d batches: want %d in several multi-payload rounds", len(suffix), len(want), 8*per)
	}

	net := netsim.New(4, 0, netsim.NewRandomScheduler(1))
	defer net.Stop()
	fresh := func() (*abc.ABC, *batchLog) {
		got := &batchLog{t: t}
		cfg := c.ABC(0)
		cfg.Router = engine.NewRouter(net.Endpoint(0)) // never run: Install is called in place
		cfg.Instance = "svc"
		cfg.VerifyCheckpoint = func([]byte) (int64, bool) { return 0, false }
		cfg.Deliver = got.deliver
		cfg.BatchEnd = got.end
		return abc.New(cfg), got
	}
	a, got := fresh()
	if !a.Install(0, func() bool { return true }, suffix, rounds, live) {
		t.Fatal("install refused")
	}
	if !slices.EqualFunc(got.batches, want, slices.Equal[[]string]) {
		t.Fatalf("replayed batches %q, peer's %q", got.batches, want)
	}
	if _, again, _ := a.SuffixSince(0); !slices.Equal(again, rounds) {
		t.Fatalf("installed party serves rounds %v, peer served %v", again, rounds)
	}
	if a.Round() != live {
		t.Fatalf("round %d after install, want the peer's %d", a.Round(), live)
	}

	decreasing := slices.Clone(rounds)
	decreasing[len(decreasing)-1] = 0
	for _, bad := range [][]int64{rounds[1:], decreasing} {
		a, got := fresh()
		if a.Install(0, func() bool { return true }, suffix, bad, live) || len(got.batches)+len(got.open) != 0 {
			t.Fatalf("install of rounds %v accepted", bad)
		}
	}
}
