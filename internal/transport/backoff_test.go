package transport

import (
	"net"
	"testing"
	"time"

	"sintra/internal/obs"
	"sintra/internal/wire"
)

func TestRedialDelayGrowsAndCaps(t *testing.T) {
	for attempt := 1; attempt <= 12; attempt++ {
		want := redialBase
		for i := 1; i < attempt && want < redialMax; i++ {
			want *= 2
		}
		if want > redialMax {
			want = redialMax
		}
		d := redialDelay(attempt, 0, 1)
		if d < want/2 || d >= want {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d, want/2, want)
		}
	}
	// Late attempts saturate at the cap's jitter window.
	if d := redialDelay(1000, 0, 1); d < redialMax/2 || d >= redialMax {
		t.Fatalf("saturated delay %v outside [%v, %v)", d, redialMax/2, redialMax)
	}
}

func TestRedialDelayDeterministicJitter(t *testing.T) {
	if redialDelay(3, 0, 1) != redialDelay(3, 0, 1) {
		t.Fatal("same (attempt, self, dest) produced different delays")
	}
	// Different links must not all redial in lockstep: across a handful of
	// (self, dest) pairs at the same attempt, at least two delays differ.
	first := redialDelay(4, 0, 1)
	varied := false
	for self := 0; self < 4 && !varied; self++ {
		for dest := 0; dest < 4; dest++ {
			if redialDelay(4, self, dest) != first {
				varied = true
				break
			}
		}
	}
	if !varied {
		t.Fatal("jitter identical across all links")
	}
}

// TestRedialAttemptsUnderBackoff points a writer at a dead port with
// compressed backoff parameters and counts dial attempts: the message is
// dropped after exactly dialAttempts+1 dials, and the elapsed time shows
// the growing pauses actually happened.
func TestRedialAttemptsUnderBackoff(t *testing.T) {
	savedBase, savedMax := redialBase, redialMax
	redialBase, redialMax = time.Millisecond, 4*time.Millisecond
	defer func() { redialBase, redialMax = savedBase, savedMax }()

	// A listener that is immediately closed yields a port that refuses
	// connections fast.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	keys := [][]byte{[]byte("k0"), []byte("k1")}
	tr, err := NewServer(Config{
		Self:       0,
		N:          2,
		Addrs:      []string{"127.0.0.1:0", deadAddr},
		ListenAddr: "127.0.0.1:0",
		LinkKeys:   keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry()
	tr.SetObserver(reg)

	start := time.Now()
	tr.Send(wire.Message{To: 1, Protocol: "p", Type: "T"})
	deadline := time.Now().Add(30 * time.Second)
	for reg.Snapshot().Counter("transport.dropped") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message to dead peer never dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	if n := reg.Snapshot().Counter("transport.redials"); n != dialAttempts+1 {
		t.Fatalf("dial attempts = %d, want %d", n, dialAttempts+1)
	}
	// Lower bound: every pause is at least half its nominal delay, and all
	// but the first two pauses sit at the 4ms cap.
	if min := 20 * time.Millisecond; elapsed < min {
		t.Fatalf("dropped after %v — backoff pauses not applied (want >= %v)", elapsed, min)
	}
}

// TestRedialGiveUpReportsUnreachablePeer points a writer at a dead port
// with the backoff pinned at its ceiling: only after giveUpAfter
// consecutive failed dials may the "transport.redial.giveup" counter
// tick, and then exactly once for the whole outage, no matter how many
// batches keep failing afterwards.
func TestRedialGiveUpReportsUnreachablePeer(t *testing.T) {
	savedBase, savedMax := redialBase, redialMax
	redialBase, redialMax = 10*time.Millisecond, 10*time.Millisecond
	defer func() { redialBase, redialMax = savedBase, savedMax }()

	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	keys := [][]byte{[]byte("k0"), []byte("k1")}
	tr, err := NewServer(Config{
		Self:       0,
		N:          2,
		Addrs:      []string{"127.0.0.1:0", deadAddr},
		ListenAddr: "127.0.0.1:0",
		LinkKeys:   keys,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	reg := obs.NewRegistry()
	tr.SetObserver(reg)

	// A batch is dropped after dialAttempts failed dials, well past the
	// giveUpAfter dials at the ceiling, so the drop implies the report.
	// While it fails, the report must not come early: the dial counter is
	// read after the give-up counter, so a report seen with fewer than
	// giveUpAfter dials behind it came too soon. Pauses of 5-10ms leave
	// several polls between dials.
	deadline := time.Now().Add(30 * time.Second)
	for batch := int64(1); batch <= 2; batch++ {
		tr.Send(wire.Message{To: 1, Protocol: "p", Type: "T"})
		for reg.Snapshot().Counter("transport.dropped") < batch {
			if time.Now().After(deadline) {
				t.Fatalf("message %d to dead peer never dropped", batch)
			}
			giveups := reg.Snapshot().Counter("transport.redial.giveup")
			if dials := reg.Snapshot().Counter("transport.redials"); giveups > 0 && dials < giveUpAfter {
				t.Fatalf("transport.redial.giveup ticked after %d failed dials, want >= %d", dials, giveUpAfter)
			}
			time.Sleep(time.Millisecond)
		}
		// The second batch against the same outage keeps probing (and
		// dropping) but must not re-report: the give-up latch holds until
		// a dial succeeds.
		if n := reg.Snapshot().Counter("transport.redial.giveup"); n != 1 {
			t.Fatalf("transport.redial.giveup = %d after batch %d, want 1", n, batch)
		}
	}
}
