package scabc_test

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sintra/internal/adversary"
	"sintra/internal/netsim"
	"sintra/internal/scabc"
	"sintra/internal/testutil"
	"sintra/internal/threnc"
	"sintra/internal/wire"
)

type harness struct {
	c     *testutil.Cluster
	insts map[int]*scabc.SCABC

	mu      sync.Mutex
	logs    map[int][][]byte
	invalid map[int]int
	cond    *sync.Cond
}

func newHarness(t *testing.T, c *testutil.Cluster, parties []int) *harness {
	t.Helper()
	h := &harness{
		c:       c,
		insts:   make(map[int]*scabc.SCABC, len(parties)),
		logs:    make(map[int][][]byte, len(parties)),
		invalid: make(map[int]int, len(parties)),
	}
	h.cond = sync.NewCond(&h.mu)
	for _, i := range parties {
		i := i
		c.Routers[i].DoSync(func() {
			h.insts[i] = scabc.New(scabc.Config{
				Router:   c.Routers[i],
				Struct:   c.Struct,
				Instance: "notary",
				Identity: c.Pub.Identity,
				IDKey:    c.Secrets[i].Identity,
				Coin:     c.Pub.Coin,
				CoinKey:  c.Secrets[i].Coin,
				Scheme:   c.Pub.QuorumSig(),
				Key:      c.Secrets[i].SigQuorum,
				Enc:      c.Pub.Enc,
				EncKey:   c.Secrets[i].Enc,
				Deliver: func(seq int64, req []byte) {
					h.mu.Lock()
					defer h.mu.Unlock()
					if int64(len(h.logs[i])) != seq {
						t.Errorf("party %d: plaintext seq %d but log has %d", i, seq, len(h.logs[i]))
					}
					h.logs[i] = append(h.logs[i], req)
					h.cond.Broadcast()
				},
				OnInvalid: func(int64) {
					h.mu.Lock()
					defer h.mu.Unlock()
					h.invalid[i]++
					h.cond.Broadcast()
				},
			})
		})
	}
	return h
}

func (h *harness) wait(t *testing.T, parties []int, want int, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.mu.Lock()
		defer h.mu.Unlock()
		for {
			ok := true
			for _, p := range parties {
				if len(h.logs[p]) < want {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			h.cond.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		h.mu.Lock()
		counts := map[int]int{}
		for _, p := range parties {
			counts[p] = len(h.logs[p])
		}
		h.mu.Unlock()
		t.Fatalf("timeout: want %d, have %v", want, counts)
	}
}

func (h *harness) assertSameOrder(t *testing.T, parties []int) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	ref := h.logs[parties[0]]
	for _, p := range parties[1:] {
		log := h.logs[p]
		n := len(ref)
		if len(log) < n {
			n = len(log)
		}
		for k := 0; k < n; k++ {
			if !bytes.Equal(ref[k], log[k]) {
				t.Fatalf("order violated at %d between %d and %d", k, parties[0], p)
			}
		}
	}
}

func TestConfidentialOrderingEndToEnd(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 2})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 4
	for k := 0; k < total; k++ {
		ct, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte(fmt.Sprintf("secret-%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.insts[k%4].Submit(ct); err != nil {
			t.Fatal(err)
		}
	}
	h.wait(t, parties, total, 120*time.Second)
	h.assertSameOrder(t, parties)
	// All requests present.
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := map[string]bool{}
	for _, p := range h.logs[0] {
		seen[string(p)] = true
	}
	for k := 0; k < total; k++ {
		if !seen[fmt.Sprintf("secret-%d", k)] {
			t.Fatalf("request %d missing", k)
		}
	}
}

func TestInvalidCiphertextSkippedDeterministically(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 3})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	// Garbage bytes ordered through the channel must be skipped by all.
	if err := h.insts[0].Submit([]byte("not a ciphertext at all")); err != nil {
		t.Fatal(err)
	}
	good, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte("valid request"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.insts[1].Submit(good); err != nil {
		t.Fatal(err)
	}
	h.wait(t, parties, 1, 90*time.Second)
	h.waitInvalid(t, parties, 1, 90*time.Second)
	h.assertSameOrder(t, parties)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range parties {
		if h.invalid[p] != 1 {
			t.Fatalf("party %d skipped %d ciphertexts, want 1", p, h.invalid[p])
		}
		if !bytes.Equal(h.logs[p][0], []byte("valid request")) {
			t.Fatalf("party %d delivered %q", p, h.logs[p][0])
		}
	}
}

// waitInvalid blocks until every listed party skipped at least want
// invalid ciphertexts.
func (h *harness) waitInvalid(t *testing.T, parties []int, want int, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.mu.Lock()
		defer h.mu.Unlock()
		for {
			ok := true
			for _, p := range parties {
				if h.invalid[p] < want {
					ok = false
					break
				}
			}
			if ok {
				return
			}
			h.cond.Wait()
		}
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("timeout waiting for invalid skips")
	}
}

func TestWrongLabelRejected(t *testing.T) {
	// A ciphertext created for another service instance must be skipped:
	// the label is authenticated by the TDH2 proof.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 5})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	alien, err := scabc.Encrypt(c.Pub.Enc, "other-service", []byte("replayed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.insts[0].Submit(alien); err != nil {
		t.Fatal(err)
	}
	good, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte("mine"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.insts[0].Submit(good); err != nil {
		t.Fatal(err)
	}
	h.wait(t, parties, 1, 90*time.Second)
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range parties {
		if len(h.logs[p]) != 1 || !bytes.Equal(h.logs[p][0], []byte("mine")) {
			t.Fatalf("party %d log: %q", p, h.logs[p])
		}
	}
}

func TestProgressWithCrashedParty(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 7, Corrupted: []int{2}})
	parties := []int{0, 1, 3}
	h := newHarness(t, c, parties)
	ct, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte("despite crash"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.insts[0].Submit(ct); err != nil {
		t.Fatal(err)
	}
	h.wait(t, parties, 1, 120*time.Second)
	h.assertSameOrder(t, parties)
}

func TestCiphertextsHideContentUntilOrdered(t *testing.T) {
	// Sanity property: two encryptions of the same request are unlinkable
	// ciphertext bytes (randomized encryption).
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{})
	ct1, _ := scabc.Encrypt(c.Pub.Enc, "notary", []byte("same"))
	ct2, _ := scabc.Encrypt(c.Pub.Enc, "notary", []byte("same"))
	if bytes.Equal(ct1, ct2) {
		t.Fatal("deterministic encryption leaks request equality")
	}
}

func TestPipelinedConfidentialRequests(t *testing.T) {
	// A burst of 10 encrypted requests from all parties: decryptions
	// complete out of order, but delivery must stay dense and identical.
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 47})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 10
	for k := 0; k < total; k++ {
		ct, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte(fmt.Sprintf("burst-%02d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.insts[k%4].Submit(ct); err != nil {
			t.Fatal(err)
		}
	}
	h.wait(t, parties, total, 180*time.Second)
	h.assertSameOrder(t, parties)
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := map[string]bool{}
	for _, p := range h.logs[0] {
		if seen[string(p)] {
			t.Fatalf("duplicate delivery %q", p)
		}
		seen[string(p)] = true
	}
	if len(seen) != total {
		t.Fatalf("delivered %d distinct, want %d", len(seen), total)
	}
}

// holdToScheduler delivers a random pending message, keeping back those
// to party victim of every protocol but the share exchange while hold is
// set.
type holdToScheduler struct {
	mu     sync.Mutex
	rng    *mrand.Rand
	victim int
	hold   atomic.Bool
}

func (s *holdToScheduler) Next(pending []wire.Message) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var free []int
	for i := range pending {
		m := &pending[i]
		if !s.hold.Load() || m.To != s.victim || m.Protocol == scabc.Protocol {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[s.rng.Intn(len(free))]
}

var _ netsim.Scheduler = (*holdToScheduler)(nil)

// TestEarlySharesBufferedPerSender: party 0 falls behind in ordering, so
// every decryption share for the first ciphertext reaches it early.
// Party 3, corrupted, first sends it 4n forged shares in one message;
// then parties 1, 2 and 3 order the ciphertext and send their real
// shares, once each. The early buffer keeps one message per sender, so
// the forgeries cost party 3 its own slot only, and party 0 decrypts once
// it orders the ciphertext. A buffer shared by all senders and capped at
// 4n shares was full before the honest shares arrived, and party 0 never
// decrypted.
func TestEarlySharesBufferedPerSender(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	sched := &holdToScheduler{rng: mrand.New(mrand.NewSource(61)), victim: 0}
	sched.hold.Store(true)
	c := testutil.NewCluster(t, st, testutil.Options{Scheduler: sched, Observe: true})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	received := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for c.Regs[0].Snapshot().Counter("router.recv.scabc.SHARES") < want {
			if time.Now().After(deadline) {
				t.Fatalf("party 0 received %d SHARES messages, want %d",
					c.Regs[0].Snapshot().Counter("router.recv.scabc.SHARES"), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	g := c.Pub.Enc.Group()
	forged := make([]threnc.Share, 4*c.N())
	for k := range forged {
		forged[k] = threnc.Share{Party: 3, ID: k % c.N(), Value: g.Generator()}
	}
	c.Net.Endpoint(3).Send(wire.Message{To: 0, Protocol: scabc.Protocol, Instance: "notary", Type: "SHARES",
		Payload: wire.MustMarshalBody(struct {
			Seq    int64
			Shares []threnc.Share
		}{0, forged})})
	received(1)

	ct, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte("late but whole"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.insts[1].Submit(ct); err != nil {
		t.Fatal(err)
	}
	h.wait(t, []int{1, 2, 3}, 1, 60*time.Second)
	received(4)

	sched.hold.Store(false)
	// Wake the network: the scheduler may be waiting for new traffic.
	c.Net.Endpoint(3).Send(wire.Message{To: 0, Protocol: "wake"})
	h.wait(t, parties, 1, 30*time.Second)
	h.assertSameOrder(t, parties)
}
