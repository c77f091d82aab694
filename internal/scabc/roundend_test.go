package scabc

import (
	"slices"
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/engine"
	"sintra/internal/netsim"
)

// TestRoundEndAfterLastDelivery drives the flush stage by hand: RoundEnd
// fires exactly once per ordered round, after the round's last delivery
// and before the next round's first, also when a later ciphertext of the
// round decrypts before an earlier one and when every ciphertext of the
// round is invalid; a round that ordered nothing fires nothing.
func TestRoundEndAfterLastDelivery(t *testing.T) {
	net := netsim.New(4, 0, netsim.NewRandomScheduler(1))
	defer net.Stop()
	var log []string
	s := New(Config{
		Router:   engine.NewRouter(net.Endpoint(0)), // never run: the stage is driven in place
		Struct:   adversary.MustThreshold(4, 1),
		Instance: "notary",
		Deliver:  func(_ int64, req []byte) { log = append(log, string(req)) },
		RoundEnd: func() { log = append(log, "|") },
	})
	decrypted := func(seq int64, plain string) {
		p := s.pendingFor(seq)
		p.plain, p.done = []byte(plain), true
		s.flush()
	}
	expect := func(want ...string) {
		t.Helper()
		if !slices.Equal(log, want) {
			t.Fatalf("log %q, want %q", log, want)
		}
	}

	// Round 1 orders ABC sequences 0 and 1; 1 decrypts first.
	s.pendingFor(0)
	s.pendingFor(1)
	s.onRoundEnd(2, 2, 0)
	decrypted(1, "b")
	expect()
	decrypted(0, "a")
	expect("a", "b", "|")

	// Round 2 orders two invalid ciphertexts, round 3 nothing.
	s.onOrdered(2, []byte("not a ciphertext"))
	s.onOrdered(3, []byte("nor this"))
	expect("a", "b", "|")
	s.onRoundEnd(4, 3, 0)
	s.onRoundEnd(4, 4, 0)
	expect("a", "b", "|", "|")

	// Round 4's ciphertext decrypts before the round ends.
	s.pendingFor(4)
	decrypted(4, "c")
	expect("a", "b", "|", "|", "c")
	s.onRoundEnd(5, 5, 0)
	expect("a", "b", "|", "|", "c", "|")
	if len(s.marks) != 0 || len(s.byABCSeq) != 0 {
		t.Fatalf("%d round marks and %d ciphertexts left over", len(s.marks), len(s.byABCSeq))
	}
}
