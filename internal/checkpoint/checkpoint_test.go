package checkpoint_test

import (
	"bytes"
	crand "crypto/rand"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"sintra/internal/abc"
	"sintra/internal/adversary"
	"sintra/internal/checkpoint"
	"sintra/internal/engine"
	"sintra/internal/obs"
	"sintra/internal/testutil"
	"sintra/internal/thresig"
	"sintra/internal/wire"
)

// harness holds one replica's tracker plus the fake service state the
// tracker checkpoints: a byte-slice snapshot, a delivery frontier, and a
// retained suffix log.
type harness struct {
	tracker *checkpoint.Tracker

	state   []byte
	seq     int64
	round   int64
	suffix  [][]byte // payloads delivered at [suffixBase, seq)
	base    int64
	stables []checkpoint.Checkpoint
	install struct {
		count    int
		snapshot []byte
		suffix   [][]byte
	}
}

func newHarnesses(t *testing.T, c *testutil.Cluster, interval int64) []*harness {
	t.Helper()
	hs := make([]*harness, c.N())
	for i := 0; i < c.N(); i++ {
		h := &harness{}
		hs[i] = h
		r := c.Routers[i]
		if r == nil {
			continue
		}
		ok := r.DoSync(func() {
			h.tracker = checkpoint.New(checkpoint.Config{
				Router:     r,
				Instance:   "svc/test",
				Scheme:     c.Pub.AnswerSig(),
				Key:        c.Secrets[i].SigAnswer,
				Interval:   interval,
				Snapshot:   func() []byte { return append([]byte(nil), h.state...) },
				CurrentSeq: func() int64 { return h.seq },
				Suffix: func(from int64) ([]abc.SuffixRound, int64) {
					if from < h.base || from >= h.seq {
						return nil, h.round
					}
					return []abc.SuffixRound{{Round: h.round, Payloads: append([][]byte(nil), h.suffix[from-h.base:]...)}}, h.round
				},
				Install: func(cp checkpoint.Checkpoint, snapshot []byte, rounds []abc.SuffixRound, liveRound int64) bool {
					if cp.Seq < h.seq {
						return false
					}
					suffix := payloadsOf(rounds)
					h.state = append([]byte(nil), snapshot...)
					h.seq = cp.Seq + int64(len(suffix))
					h.round = liveRound
					h.install.count++
					h.install.snapshot = append([]byte(nil), snapshot...)
					h.install.suffix = suffix
					for _, p := range suffix {
						h.state = append(h.state, p...)
					}
					return true
				},
				OnStable: func(cp checkpoint.Checkpoint) { h.stables = append(h.stables, cp) },
			})
		})
		if !ok {
			t.Fatalf("router %d not running", i)
		}
	}
	return hs
}

// payloadsOf lists a suffix's payloads in order.
func payloadsOf(suffix []abc.SuffixRound) [][]byte {
	var out [][]byte
	for _, r := range suffix {
		out = append(out, r.Payloads...)
	}
	return out
}

// deliver advances one replica's fake service by a payload.
func (h *harness) deliver(p []byte) {
	h.state = append(h.state, p...)
	h.suffix = append(h.suffix, p)
	h.seq++
}

// deliverInterval has replicas [0, live) deliver one four-payload
// checkpoint interval and note the round that follows, without ending it.
// Every replica must deliver before any of them calls RoundEnd: a SHARE for
// seq 4 reaching a replica still at seq 0 marks it a full interval behind,
// so it would install its peers' certified snapshot — and then deliver its
// own four payloads on top of it, and hold no snapshot to serve.
func deliverInterval(c *testutil.Cluster, hs []*harness, live int, prefix string, round int64) {
	for i := 0; i < live; i++ {
		h := hs[i]
		c.Routers[i].DoSync(func() {
			for s := 0; s < 4; s++ {
				h.deliver(fmt.Appendf(nil, "%s%d", prefix, s))
			}
			h.round = round
		})
	}
}

func waitStable(t *testing.T, c *testutil.Cluster, hs []*harness, i int, seq int64) checkpoint.Checkpoint {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var cp checkpoint.Checkpoint
		c.Routers[i].DoSync(func() { cp = hs[i].tracker.Stable() })
		if cp.Seq >= seq {
			return cp
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica %d: stable checkpoint never reached seq %d", i, seq)
	return checkpoint.Checkpoint{}
}

// TestCertificateFormation drives all four replicas to the same round
// boundary and asserts a stable certificate forms and verifies.
func TestCertificateFormation(t *testing.T) {
	st, err := adversary.NewThreshold(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := testutil.NewCluster(t, st, testutil.Options{})
	hs := newHarnesses(t, c, 4)

	deliverInterval(c, hs, c.N(), "payload-", 2)
	for i := 0; i < c.N(); i++ {
		h := hs[i]
		c.Routers[i].DoSync(func() { h.tracker.RoundEnd(h.seq, h.round) })
	}
	for i := 0; i < c.N(); i++ {
		cp := waitStable(t, c, hs, i, 4)
		if cp.Seq != 4 || cp.Round != 2 {
			t.Fatalf("replica %d: stable = (%d,%d), want (4,2)", i, cp.Seq, cp.Round)
		}
		wantHash := sha256.Sum256(hs[i].state)
		if cp.Hash != wantHash {
			t.Fatalf("replica %d: certified hash does not match local state", i)
		}
		if err := c.Pub.AnswerSig().Verify(
			checkpoint.Statement("svc/test", cp.Seq, cp.Round, cp.Hash), cp.Cert); err != nil {
			t.Fatalf("replica %d: certificate does not verify: %v", i, err)
		}
		if len(hs[i].stables) == 0 {
			t.Fatalf("replica %d: OnStable never fired", i)
		}
	}

	// The encoded form round-trips through VerifyEncoded; tampering with
	// any byte of the certificate must be rejected.
	c.Routers[0].DoSync(func() {
		enc := hs[0].tracker.EncodedStable()
		if enc == nil {
			t.Error("EncodedStable is nil after a certificate formed")
			return
		}
		if seq, ok := hs[0].tracker.VerifyEncoded(enc); !ok || seq != 4 {
			t.Errorf("VerifyEncoded(valid) = (%d,%v), want (4,true)", seq, ok)
		}
		bad := append([]byte(nil), enc...)
		bad[len(bad)-1] ^= 0xff
		if _, ok := hs[0].tracker.VerifyEncoded(bad); ok {
			t.Error("VerifyEncoded accepted a tampered encoding")
		}
	})
}

// badShareFirst delivers a random pending message, holding every honest
// checkpoint SHARE to a replica until corrupted party 3's has reached it.
type badShareFirst struct {
	rng  *rand.Rand
	seen adversary.Set
}

func (s *badShareFirst) Next(pending []wire.Message) int {
	var free []int
	for i, m := range pending {
		if m.Type != "SHARE" || m.From == 3 || s.seen.Has(m.To) {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	i := free[s.rng.Intn(len(free))]
	if m := pending[i]; m.Type == "SHARE" && m.From == 3 {
		s.seen = s.seen.Add(m.To)
	}
	return i
}

// TestByzantineCheckpointShare: shares are combined unverified. Corrupted
// party 3's SHARE names the honest checkpoint but carries its share on
// another statement, and reaches every honest replica first, so each
// one's first combine includes it and fails. The culprit is dropped,
// counted once per replica as ckpt.share.rejected, and the honest shares
// still certify the checkpoint. Checkpoints are signed with the answer
// key: Shoup RSA by default, where a combine is checked before any share
// is, and a certificate under ForceCert, where the wrong share is an
// Ed25519 signature that the combine checks as it goes.
func TestByzantineCheckpointShare(t *testing.T) {
	for _, arm := range []struct {
		name      string
		forceCert bool
	}{{"rsa", false}, {"cert", true}} {
		t.Run(arm.name, func(t *testing.T) { byzantineCheckpointShare(t, arm.forceCert) })
	}
}

func byzantineCheckpointShare(t *testing.T, forceCert bool) {
	st := adversary.MustThreshold(4, 1)
	c := testutil.NewCluster(t, st, testutil.Options{ForceCert: forceCert,
		Scheduler: &badShareFirst{rng: rand.New(rand.NewSource(37))}, Corrupted: []int{3}, Observe: true})
	if _, isCert := c.Pub.AnswerSig().(*thresig.CertScheme); isCert != forceCert {
		t.Fatalf("answer key is a %T", c.Pub.AnswerSig())
	}
	hs := newHarnesses(t, c, 4)
	deliverInterval(c, hs, 3, "payload-", 2)
	hash := sha256.Sum256(hs[0].state)
	wrong, err := c.Pub.AnswerSig().SignShare(c.Secrets[3].SigAnswer,
		checkpoint.Statement("svc/test", 4, 2, sha256.Sum256([]byte("another state"))), crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for to := 0; to < 3; to++ {
		c.Net.Endpoint(3).Send(wire.Message{To: to, Protocol: checkpoint.Protocol, Instance: "svc/test",
			Type: "SHARE", Payload: wire.MustMarshalBody(struct {
				Seq, Round int64
				Hash       [32]byte
				Share      thresig.Share
			}{4, 2, hash, wrong})})
	}
	for i := 0; i < 3; i++ {
		h := hs[i]
		c.Routers[i].DoSync(func() { h.tracker.RoundEnd(h.seq, h.round) })
	}
	for i := 0; i < 3; i++ {
		cp := waitStable(t, c, hs, i, 4)
		if cp.Hash != hash {
			t.Fatalf("replica %d certified another hash", i)
		}
		if err := c.Pub.AnswerSig().Verify(checkpoint.Statement("svc/test", cp.Seq, cp.Round, cp.Hash), cp.Cert); err != nil {
			t.Fatalf("replica %d: certificate does not verify: %v", i, err)
		}
		if n := c.Regs[i].Snapshot().Counter("ckpt.share.rejected"); n != 1 {
			t.Fatalf("replica %d: ckpt.share.rejected = %d, want 1", i, n)
		}
	}
}

// TestCatchUpInstall lets three replicas certify a checkpoint while the
// fourth stays empty, then has the laggard fetch and install the
// certified snapshot plus suffix.
func TestCatchUpInstall(t *testing.T) {
	st, err := adversary.NewThreshold(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := testutil.NewCluster(t, st, testutil.Options{})
	hs := newHarnesses(t, c, 4)

	// Replicas 0-2 deliver six payloads and checkpoint at seq 4; replica 3
	// saw nothing (crashed). The extra two payloads form the live suffix.
	deliverInterval(c, hs, 3, "p", 3)
	for i := 0; i < 3; i++ {
		h := hs[i]
		c.Routers[i].DoSync(func() {
			h.tracker.RoundEnd(h.seq, h.round)
			h.deliver([]byte("p4"))
			h.deliver([]byte("p5"))
		})
	}
	waitStable(t, c, hs, 0, 4)

	// Replica 3 rejoins: its shares-driven lag detection needs a SHARE it
	// never saw, so it uses the explicit restart path.
	c.Routers[3].DoSync(func() { hs[3].tracker.RequestCatchUp() })

	deadline := time.Now().Add(10 * time.Second)
	for {
		var n int
		c.Routers[3].DoSync(func() { n = hs[3].install.count })
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 3 never installed a checkpoint")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.Routers[3].DoSync(func() {
		h := hs[3]
		if h.seq != 6 {
			t.Errorf("replica 3 frontier = %d, want 6 (checkpoint 4 + suffix 2)", h.seq)
		}
		if !bytes.Equal(h.state, hs[0].state) {
			t.Error("replica 3 state does not match a live replica after catch-up")
		}
		if len(h.install.suffix) != 2 {
			t.Errorf("installed suffix has %d payloads, want 2", len(h.install.suffix))
		}
		if !h.tracker.Tentative() {
			t.Error("state installed from an unaudited suffix should be tentative")
		}
		if h.tracker.Stable().Seq != 4 {
			t.Errorf("replica 3 stable seq = %d, want 4", h.tracker.Stable().Seq)
		}
	})

	// The next checkpoint (two more deliveries complete the interval)
	// audits the tentative state: all four replicas hash identical state
	// at seq 8, so the fresh certificate clears the tentative flag and
	// replica 3 contributes its share again. Replica 3 goes first: it must
	// have hashed its own state at seq 8 before the others' shares can
	// certify that seq, or there is nothing to audit against.
	for _, i := range []int{3, 0, 1, 2} {
		h := hs[i]
		c.Routers[i].DoSync(func() {
			h.deliver([]byte("p6"))
			h.deliver([]byte("p7"))
			h.round = 5
			h.tracker.RoundEnd(h.seq, h.round)
		})
	}
	waitStable(t, c, hs, 3, 8)
	c.Routers[3].DoSync(func() {
		if hs[3].tracker.Tentative() {
			t.Error("audit against the seq-8 certificate should clear the tentative flag")
		}
	})
}

// TestFetchBeforeStable covers the restart race: the FETCH arrives
// before any peer holds a stable checkpoint; peers must remember the
// want and serve the state as soon as the first certificate forms.
func TestFetchBeforeStable(t *testing.T) {
	st, err := adversary.NewThreshold(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := testutil.NewCluster(t, st, testutil.Options{})
	hs := newHarnesses(t, c, 4)

	c.Routers[3].DoSync(func() { hs[3].tracker.RequestCatchUp() })
	time.Sleep(20 * time.Millisecond) // let the FETCH land pre-certificate

	for i := 0; i < 3; i++ {
		h := hs[i]
		c.Routers[i].DoSync(func() {
			for s := 0; s < 4; s++ {
				h.deliver(fmt.Appendf(nil, "q%d", s))
			}
			h.round = 2
			h.tracker.RoundEnd(h.seq, h.round)
		})
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var n int
		c.Routers[3].DoSync(func() { n = hs[3].install.count })
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("deferred FETCH was never answered after the certificate formed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// lossyTransport swallows inbound messages of one type while enabled — a
// lossy link the netsim scheduler cannot model (it reorders, but always
// delivers).
type lossyTransport struct {
	wire.Transport
	dropType string

	mu       sync.Mutex
	dropping bool
	dropped  int
}

func (l *lossyTransport) setDropping(v bool) {
	l.mu.Lock()
	l.dropping = v
	l.mu.Unlock()
}

func (l *lossyTransport) droppedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

func (l *lossyTransport) Recv() (wire.Message, bool) {
	for {
		m, ok := l.Transport.Recv()
		if !ok {
			return m, ok
		}
		l.mu.Lock()
		drop := l.dropping && m.Protocol == checkpoint.Protocol && m.Type == l.dropType
		if drop {
			l.dropped++
		}
		l.mu.Unlock()
		if !drop {
			return m, true
		}
	}
}

// lossyLaggard builds a cluster whose replica 3 runs over a lossy link
// that swallows STATE replies, plus a tracker for it with the given
// retry interval. It returns everything the catch-up retry tests need.
func lossyLaggard(t *testing.T, retry time.Duration) (*testutil.Cluster, []*harness, *harness, *engine.Router, *lossyTransport, *obs.Registry) {
	t.Helper()
	st, err := adversary.NewThreshold(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := testutil.NewCluster(t, st, testutil.Options{Corrupted: []int{3}})
	lossy := &lossyTransport{Transport: c.Net.Endpoint(3), dropType: "STATE", dropping: true}
	r3 := engine.NewRouter(lossy)
	reg := obs.NewRegistry()
	r3.SetObserver(reg)
	done := make(chan struct{})
	go func() { defer close(done); r3.Run() }()
	t.Cleanup(func() { lossy.Close(); <-done })

	h3 := &harness{}
	ok := r3.DoSync(func() {
		h3.tracker = checkpoint.New(checkpoint.Config{
			Router:        r3,
			Instance:      "svc/test",
			Scheme:        c.Pub.AnswerSig(),
			Key:           c.Secrets[3].SigAnswer,
			Interval:      4,
			RetryInterval: retry,
			Snapshot:      func() []byte { return append([]byte(nil), h3.state...) },
			CurrentSeq:    func() int64 { return h3.seq },
			Suffix:        func(int64) ([]abc.SuffixRound, int64) { return nil, h3.round },
			Install: func(cp checkpoint.Checkpoint, snapshot []byte, rounds []abc.SuffixRound, liveRound int64) bool {
				suffix := payloadsOf(rounds)
				h3.state = append([]byte(nil), snapshot...)
				h3.seq = cp.Seq + int64(len(suffix))
				h3.round = liveRound
				h3.install.count++
				for _, p := range suffix {
					h3.state = append(h3.state, p...)
				}
				return true
			},
		})
	})
	if !ok {
		t.Fatal("router 3 not running")
	}
	hs := newHarnesses(t, c, 4)

	// Replicas 0-2 certify a checkpoint at seq 4; their SHARE broadcasts
	// reach replica 3, whose frontier of 0 marks it a full interval
	// behind, so it FETCHes — and every STATE reply vanishes on its link.
	deliverInterval(c, hs, 3, "r", 2)
	for i := 0; i < 3; i++ {
		h := hs[i]
		c.Routers[i].DoSync(func() { h.tracker.RoundEnd(h.seq, h.round) })
	}
	waitStable(t, c, hs, 0, 4)
	return c, hs, h3, r3, lossy, reg
}

// TestCatchUpStallsWithoutRetry documents the regression the retry timer
// fixes: lastFetch dedups FETCH broadcasts per observed stable sequence,
// so once the (lost) initial round of STATE replies is spent, a laggard
// with retries disabled waits forever — no peer ever hears from it again
// until a NEW checkpoint forms.
func TestCatchUpStallsWithoutRetry(t *testing.T) {
	c, _, h3, r3, lossy, reg := lossyLaggard(t, -1)

	// Give the initial FETCH every chance, then heal the link. With no
	// retry timer nothing is ever re-sent, so healing changes nothing.
	time.Sleep(80 * time.Millisecond)
	lossy.setDropping(false)
	time.Sleep(250 * time.Millisecond)

	var installs int
	c.Routers[0].DoSync(func() {}) // flush peers
	if ok := r3.DoSync(func() { installs = h3.install.count }); !ok {
		t.Fatal("router 3 died")
	}
	if installs != 0 {
		t.Fatalf("laggard installed %d checkpoints with retries disabled — the stall this test documents is gone, update it", installs)
	}
	if lossy.droppedCount() == 0 {
		t.Fatal("no STATE reply was ever dropped: the scenario never exercised the lossy link")
	}
	if n := reg.Snapshot().Counter("checkpoint.catchup.retries"); n != 0 {
		t.Fatalf("%d retries fired with RetryInterval < 0", n)
	}
}

// TestCatchUpRetryRecoversLostState is the regression test for the
// catch-up stall: STATE replies to the laggard's FETCH are lost, and the
// retry timer must keep re-FETCHing — one peer per tick, rotating — until
// the link heals and a reply lands. Without the timer this scenario
// deadlocks (see TestCatchUpStallsWithoutRetry).
func TestCatchUpRetryRecoversLostState(t *testing.T) {
	c, hs, h3, r3, lossy, reg := lossyLaggard(t, 40*time.Millisecond)

	// Let a STATE reply vanish and a retry tick burn against the lossy
	// link. Waiting for the events (not a fixed sleep) heals the link
	// while the peers still have serve budget left, however slowly this
	// goroutine is scheduled.
	for deadline := time.Now().Add(10 * time.Second); lossy.droppedCount() == 0 ||
		reg.Snapshot().Counter("checkpoint.catchup.retries") == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("lossy link never exercised: %d STATE replies dropped, %d retries",
				lossy.droppedCount(), reg.Snapshot().Counter("checkpoint.catchup.retries"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	var installs int
	r3.DoSync(func() { installs = h3.install.count })
	if installs != 0 {
		t.Fatal("laggard installed while every STATE reply was dropped")
	}
	lossy.setDropping(false)

	deadline := time.Now().Add(10 * time.Second)
	for {
		r3.DoSync(func() { installs = h3.install.count })
		if installs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("laggard never installed after the link healed: retry FETCH not re-sent (dropped=%d retries=%d)",
				lossy.droppedCount(), reg.Snapshot().Counter("checkpoint.catchup.retries"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if n := reg.Snapshot().Counter("checkpoint.catchup.retries"); n == 0 {
		t.Fatal("checkpoint.catchup.retries never incremented")
	}
	// The laggard's recovered state must match a live replica's.
	r3.DoSync(func() {
		if h3.seq < 4 {
			t.Errorf("laggard frontier %d after install, want >= 4", h3.seq)
		}
	})
	c.Routers[0].DoSync(func() {
		if !bytes.Equal(h3.state, hs[0].state[:len(h3.state)]) {
			t.Error("laggard state does not match the live replica prefix")
		}
	})
}
