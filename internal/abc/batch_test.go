package abc_test

import (
	"fmt"
	"reflect"
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

// roundLog records the Rounds EndRound handed over, each with the
// payloads Deliver saw since the previous one.
type roundLog struct {
	t      *testing.T
	mu     sync.Mutex
	open   [][]byte
	rounds []abc.Round
	suffix []abc.SuffixRound // the delivering rounds, as a suffix lists them
}

func (l *roundLog) deliver(_ int64, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open = append(l.open, payload)
}

func (l *roundLog) end(r abc.Round) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.rounds); r.End-r.First != int64(len(l.open)) || n > 0 && r.First != l.rounds[n-1].End {
		l.t.Errorf("round %d spans [%d, %d) after %v, with %d payloads", r.Number, r.First, r.End, l.rounds, len(l.open))
	}
	l.rounds = append(l.rounds, r)
	if len(l.open) > 0 {
		l.suffix = append(l.suffix, abc.SuffixRound{Round: r.Number, Payloads: l.open})
	}
	l.open = nil
}

// TestInstallReplaysBatches: a fresh party that installs a peer's
// SuffixSince gets, round by round and in order, the Rounds the peer's
// decides produced, each marked replayed, and serves the same suffix in
// turn. Suffixes whose rounds are empty or out of order are refused before
// anything delivers.
func TestInstallReplaysBatches(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 37})
	parties := []int{0, 1, 2, 3}
	peer := &roundLog{t: t}
	h := newHarnessCfg(t, c, parties, func(cfg *abc.Config) {
		// Checkpointing wired: every party retains its delivery suffix.
		cfg.VerifyCheckpoint = func([]byte) (int64, bool) { return 0, false }
		if cfg.Router == c.Routers[0] {
			deliver := cfg.Deliver
			cfg.Deliver = func(seq int64, payload []byte) { peer.deliver(seq, payload); deliver(seq, payload) }
			cfg.EndRound = peer.end
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
	var suffix []abc.SuffixRound
	var live int64
	// Behind the decide that delivered the last payload, so its round has
	// ended too.
	c.Routers[0].DoSync(func() { suffix, live = h.insts[0].SuffixSince(0) })
	peer.mu.Lock()
	want := peer.suffix
	ended := peer.rounds
	peer.mu.Unlock()
	payloads := 0
	for _, r := range suffix {
		payloads += len(r.Payloads)
	}
	if payloads != 8*per || len(suffix) < 2 || len(suffix) == payloads {
		t.Fatalf("suffix of %d payloads in %d rounds: want %d in several multi-payload rounds", payloads, len(suffix), 8*per)
	}
	if !reflect.DeepEqual(suffix, want) || slices.ContainsFunc(ended, func(r abc.Round) bool { return r.Replayed }) {
		t.Fatalf("peer serves %v, its decides ended %v", suffix, ended)
	}

	net := netsim.New(4, 0, netsim.NewRandomScheduler(1))
	defer net.Stop()
	fresh := func() (*abc.ABC, *roundLog) {
		got := &roundLog{t: t}
		cfg := c.ABC(0)
		cfg.Router = engine.NewRouter(net.Endpoint(0)) // never run: Install is called in place
		cfg.Instance = "svc"
		cfg.VerifyCheckpoint = func([]byte) (int64, bool) { return 0, false }
		cfg.Deliver = got.deliver
		cfg.EndRound = got.end
		return abc.New(cfg), got
	}
	a, got := fresh()
	if !a.Install(0, func() bool { return true }, suffix, live) {
		t.Fatal("install refused")
	}
	if !reflect.DeepEqual(got.suffix, want) || len(got.rounds) != len(want) ||
		slices.ContainsFunc(got.rounds, func(r abc.Round) bool { return !r.Replayed }) {
		t.Fatalf("replayed rounds %v with %v, peer's %v", got.rounds, got.suffix, want)
	}
	if again, _ := a.SuffixSince(0); !reflect.DeepEqual(again, suffix) {
		t.Fatalf("installed party serves %v, peer served %v", again, suffix)
	}
	if a.Round() != live {
		t.Fatalf("round %d after install, want the peer's %d", a.Round(), live)
	}

	swapped := slices.Clone(suffix)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	repeated := slices.Clone(suffix)
	repeated[1].Round = repeated[0].Round
	empty := append(slices.Clone(suffix), abc.SuffixRound{Round: live})
	for _, bad := range [][]abc.SuffixRound{swapped, repeated, empty} {
		a, got := fresh()
		if a.Install(0, func() bool { return true }, bad, live) || len(got.rounds)+len(got.open) != 0 {
			t.Fatalf("install of %v accepted", bad)
		}
	}
}
