package scabc_test

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/netsim"
	"sintra/internal/obs"
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
	// ends holds, per party, how many ordered ciphertexts had been
	// delivered or skipped at each EndRound; invalid counts the skipped.
	ends map[int][]int
	cond *sync.Cond
}

func newHarness(t *testing.T, c *testutil.Cluster, parties []int) *harness {
	t.Helper()
	return newHarnessCfg(t, c, parties, nil)
}

// newHarnessCfg is newHarness with a hook to adjust each party's config
// before its instance is created.
func newHarnessCfg(t *testing.T, c *testutil.Cluster, parties []int, adjust func(*scabc.Config)) *harness {
	t.Helper()
	h := &harness{
		c:       c,
		insts:   make(map[int]*scabc.SCABC, len(parties)),
		logs:    make(map[int][][]byte, len(parties)),
		invalid: make(map[int]int, len(parties)),
		ends:    make(map[int][]int, len(parties)),
	}
	h.cond = sync.NewCond(&h.mu)
	for _, i := range parties {
		i := i
		c.Routers[i].DoSync(func() {
			cfg := c.SCABC(i)
			cfg.Instance = "notary"
			cfg.Deliver = func(seq int64, req []byte) {
				h.mu.Lock()
				defer h.mu.Unlock()
				if int64(len(h.logs[i])) != seq {
					t.Errorf("party %d: plaintext seq %d but log has %d", i, seq, len(h.logs[i]))
				}
				h.logs[i] = append(h.logs[i], req)
				h.cond.Broadcast()
			}
			cfg.EndRound = func(r abc.Round) {
				h.mu.Lock()
				defer h.mu.Unlock()
				if n := len(h.ends[i]); r.End != int64(len(h.logs[i])) || n > 0 && r.First != int64(h.ends[i][n-1]-h.invalid[i]) {
					t.Errorf("party %d: round %d ends plaintexts [%d, %d) after %d", i, r.Number, r.First, r.End, len(h.logs[i]))
				}
				h.invalid[i] += r.Skipped
				h.ends[i] = append(h.ends[i], len(h.logs[i])+h.invalid[i])
				h.cond.Broadcast()
			}
			if adjust != nil {
				adjust(&cfg)
			}
			h.insts[i] = scabc.New(cfg)
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
	h.assertSameRounds(t, parties, 30*time.Second)
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

// assertSameRounds waits until every listed party has ended the round of
// its last settled ciphertext, then checks that all ended the same rounds
// at the same points, each one after at least one ciphertext.
func (h *harness) assertSameRounds(t *testing.T, parties []int, timeout time.Duration) {
	t.Helper()
	closed := func() bool {
		for _, p := range parties {
			e := h.ends[p]
			if len(e) == 0 || e[len(e)-1] != len(h.logs[p])+h.invalid[p] {
				return false
			}
		}
		return true
	}
	deadline := time.AfterFunc(timeout, func() { h.cond.Broadcast() })
	defer deadline.Stop()
	start := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for !closed() {
		if time.Since(start) > timeout {
			t.Fatalf("rounds not closed: ends %v", h.ends)
		}
		h.cond.Wait()
	}
	ref := h.ends[parties[0]]
	for k, e := range ref {
		if k > 0 && e <= ref[k-1] || k == 0 && e == 0 {
			t.Fatalf("party %d ended an empty round: %v", parties[0], ref)
		}
	}
	for _, p := range parties[1:] {
		if !slices.Equal(h.ends[p], ref) {
			t.Fatalf("rounds differ: party %d ended %v, party %d %v", parties[0], ref, p, h.ends[p])
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
	h.assertSameRounds(t, parties, 30*time.Second)
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

// TestOneSharesMessagePerRound: under a burst, rounds order several
// ciphertexts each, and every party receives exactly one SHARES message
// from each party per round: shares travel per round, not per ciphertext.
func TestOneSharesMessagePerRound(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{Seed: 53, Observe: true})
	parties := []int{0, 1, 2, 3}
	h := newHarness(t, c, parties)
	const total = 12
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
	h.assertSameRounds(t, parties, 30*time.Second)
	h.mu.Lock()
	rounds := len(h.ends[0])
	h.mu.Unlock()
	if rounds >= total {
		t.Fatalf("%d rounds ordered %d ciphertexts: none ordered two", rounds, total)
	}
	want := int64(c.N() * rounds)
	for _, p := range parties {
		recv := func() int64 { return c.Regs[p].Snapshot().Counter("router.recv.scabc.SHARES") }
		for deadline := time.Now().Add(30 * time.Second); recv() < want && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if got := recv(); got != want {
			t.Fatalf("party %d received %d SHARES messages for %d rounds of %d ciphertexts, want %d", p, got, rounds, total, want)
		}
	}
}

// TestOwnSharesTakenUnchecked: party 0's TDH2 parameters hold a wrong
// verification key for its own share, and the SHARES messages of parties
// 1 and 2 never reach it. Party 0 decrypts every request from its own
// shares and party 3's alone: no party checks the proof of a share it
// released. It delivers what the others deliver, and it emits no
// shares.rejected event naming itself as sender. (The others may reject
// its shares: a proof binds the verification key its maker holds.) A
// party that checked the looped-back copy of its own shares rejected them
// here and never decrypted.
func TestOwnSharesTakenUnchecked(t *testing.T) {
	sched := &holdScheduler{rng: mrand.New(mrand.NewSource(67)), hold: func(m *wire.Message) bool {
		return m.To == 0 && m.Protocol == scabc.Protocol && (m.From == 1 || m.From == 2)
	}}
	reg := obs.NewRegistry()
	events := obs.NewCollectTracer()
	reg.SetTracer(events)
	c := testutil.NewCluster(t, adversary.MustThreshold(4, 1), testutil.Options{Scheduler: sched, Registry: reg})
	parties := []int{0, 1, 2, 3}
	h := newHarnessCfg(t, c, parties, func(cfg *scabc.Config) {
		if cfg.Router.Self() == 0 {
			cfg.Enc = wrongOwnKeys(t, cfg.Enc, cfg.EncKey)
		}
	})
	const total = 3
	for k := 0; k < total; k++ {
		ct, err := scabc.Encrypt(c.Pub.Enc, "notary", []byte(fmt.Sprintf("own-%d", k)))
		if err != nil {
			t.Fatal(err)
		}
		if err := h.insts[k%4].Submit(ct); err != nil {
			t.Fatal(err)
		}
	}
	h.wait(t, parties, total, 60*time.Second)
	h.assertSameOrder(t, parties)
	for _, ev := range events.Events() {
		if ev.Party == 0 && ev.Stage == "shares.rejected" && ev.Note == "from 0" {
			t.Fatalf("party 0 rejected its own decryption shares for round %d", ev.Seq)
		}
	}
}

// wrongOwnKeys returns a copy of the TDH2 parameters in which each of the
// key's shares has another share's verification key.
func wrongOwnKeys(t *testing.T, p *threnc.Params, key *threnc.SecretKey) *threnc.Params {
	t.Helper()
	keys := slices.Clone(p.VerifyKeys)
	for _, sh := range key.Shares {
		keys[sh.ID] = p.VerifyKeys[(sh.ID+1)%len(keys)]
	}
	wrong := &threnc.Params{GroupName: p.GroupName, Structure: p.Structure, PubKey: p.PubKey, VerifyKeys: keys}
	if err := wrong.Init(); err != nil {
		t.Fatal(err)
	}
	return wrong
}

// holdScheduler delivers a random pending message other than those hold
// names, which stay pending while hold names them.
type holdScheduler struct {
	rng  *mrand.Rand
	hold func(m *wire.Message) bool
}

func (s *holdScheduler) Next(pending []wire.Message) int {
	var free []int
	for i := range pending {
		if !s.hold(&pending[i]) {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[s.rng.Intn(len(free))]
}

var _ netsim.Scheduler = (*holdScheduler)(nil)

// TestEarlySharesBufferedPerSender: party 0 falls behind in ordering, so
// every decryption share for round 1, which orders one ciphertext,
// reaches it early. Party 3, corrupted, first sends it 4n forged shares
// for the round in one message; then parties 1, 2 and 3 end the round and
// send their real shares, once each. The early buffer keeps one message
// per sender and round, so the forgeries cost party 3 its own slot only,
// and party 0 decrypts once it ends the round. A buffer shared by all
// senders and capped at 4n shares was full before the honest shares
// arrived, and party 0 never decrypted.
func TestEarlySharesBufferedPerSender(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	// Party 0 gets nothing but the share exchange while holding is set.
	var holding atomic.Bool
	holding.Store(true)
	sched := &holdScheduler{rng: mrand.New(mrand.NewSource(61)), hold: func(m *wire.Message) bool {
		return holding.Load() && m.To == 0 && m.Protocol != scabc.Protocol
	}}
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
			Round  int64
			Shares [][]threnc.Share
		}{1, [][]threnc.Share{forged}})})
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

	holding.Store(false)
	// Wake the network: the scheduler may be waiting for new traffic.
	c.Net.Endpoint(3).Send(wire.Message{To: 0, Protocol: "wake"})
	h.wait(t, parties, 1, 30*time.Second)
	h.assertSameOrder(t, parties)
}
