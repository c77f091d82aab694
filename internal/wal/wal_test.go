package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sintra/internal/obs"
)

// testOpts disables fsync so unit tests don't pay disk latency; the
// durability path itself is exercised by TestGroupCommitDurable.
func testOpts() Options {
	return Options{NoSync: true, SegmentSize: 1 << 20}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := fmt.Appendf(nil, "record-%d-%s", i, string(make([]byte, i%40)))
		want = append(want, p)
		lsn, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.LSN != uint64(i) || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d: LSN %d payload %q", i, r.LSN, r.Payload)
		}
	}
	if next, _, _, _ := l2.Progress(); next != uint64(len(want)) {
		t.Fatalf("next LSN = %d, want %d", next, len(want))
	}
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentSize = 256 // force frequent rotation
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := l.Append(fmt.Appendf(nil, "payload-%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 3 {
		t.Fatalf("expected multiple segments, got %v", names)
	}
	_, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("replayed %d records across segments, want 50", len(recs))
	}
}

// corruptTail flips a byte near the end of the newest segment.
func corruptTail(t *testing.T, dir string) {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments to corrupt: %v", err)
	}
	path := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty segment")
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append(fmt.Appendf(nil, "rec-%d", i))
	}
	l.Close()

	// Simulate a power-fail partial write: chop bytes mid-frame.
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(recs))
	}
	if l2.TornBytes == 0 {
		t.Fatal("torn bytes not reported")
	}
	// The log must be appendable again, right where the tail ended.
	lsn, err := l2.Append([]byte("after-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 9 {
		t.Fatalf("post-recovery LSN = %d, want 9", lsn)
	}
	l2.Close()
	_, recs, err = Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || !bytes.Equal(recs[9].Payload, []byte("after-recovery")) {
		t.Fatalf("post-recovery replay wrong: %d records", len(recs))
	}
}

func TestCorruptTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append(fmt.Appendf(nil, "rec-%d", i))
	}
	l.Close()
	corruptTail(t, dir)

	_, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("replayed %d records after bit flip, want 9", len(recs))
	}
}

func TestCorruptionMidHistoryDropsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentSize = 128
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		l.Append(fmt.Appendf(nil, "payload-%04d", i))
	}
	l.Close()
	names, _ := segmentNames(dir)
	if len(names) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(names))
	}
	// Corrupt the FIRST segment: everything after the damage is dropped.
	path := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	os.WriteFile(path, data, 0o644)

	l2, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 40 {
		t.Fatalf("corruption mid-history kept %d records", len(recs))
	}
	after, _ := segmentNames(dir)
	if len(after) != 1 {
		t.Fatalf("later segments survived corruption: %v", after)
	}
	l2.Close()
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentSize = 128
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		l.Append(fmt.Appendf(nil, "payload-%04d", i))
	}
	before := l.Size()
	if err := l.TruncateBefore(30); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("TruncateBefore reclaimed nothing (%d -> %d bytes)", before, l.Size())
	}
	l.Close()
	_, recs, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) >= 40 {
		t.Fatalf("replayed %d records after truncation", len(recs))
	}
	// Survivors keep their original LSNs.
	last := recs[len(recs)-1]
	if last.LSN != 39 || !bytes.Equal(last.Payload, []byte("payload-0039")) {
		t.Fatalf("last survivor LSN %d payload %q", last.LSN, last.Payload)
	}
	for _, r := range recs {
		if r.LSN >= 30 && !bytes.Equal(r.Payload, fmt.Appendf(nil, "payload-%04d", r.LSN)) {
			t.Fatalf("record %d corrupted after truncation", r.LSN)
		}
	}
}

func TestGroupCommitDurable(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l.SetObserver(reg)
	// Concurrent durable appends must all complete (sharing fsyncs).
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := l.AppendDurable(fmt.Appendf(nil, "durable-%d", i)); err != nil {
				t.Errorf("AppendDurable: %v", err)
			}
		}(i)
	}
	wg.Wait()
	snap := reg.Snapshot()
	commits := snap.Histograms["wal.commit.records"]
	if commits.Sum != 16 || commits.Count > snap.Counter("wal.fsyncs") || snap.Counter("wal.fsyncs") > 16 {
		t.Fatalf("commits cover %d records in %d batches over %d fsyncs, want 16 records in at most 16",
			commits.Sum, commits.Count, snap.Counter("wal.fsyncs"))
	}
	l.Close()
	_, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 16 {
		t.Fatalf("replayed %d durable records, want 16", len(recs))
	}
}

// TestRotateDuringSyncNeverWedges: a commit's fsync runs outside the
// lock, so a size-driven or explicit rotation can seal the very file it
// is syncing. The sealed file was fsynced by the rotation; the commit
// must count as covered, not fail the log for good.
func TestRotateDuringSyncNeverWedges(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentSize: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const appenders, each = 4, 150
	stop := make(chan struct{})
	rotated := make(chan struct{})
	go func() {
		defer close(rotated)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.Rotate(); err != nil {
				t.Errorf("Rotate: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(bytes.Repeat([]byte{byte(a)}, 100))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.WaitDurable(lsn); err != nil {
					t.Errorf("WaitDurable(%d): %v", lsn, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	close(stop)
	<-rotated
	if l.Wedged() {
		t.Fatal("log wedged by a rotation racing a commit")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != appenders*each {
		t.Fatalf("replayed %d records, want %d", len(recs), appenders*each)
	}
}

// TestSyncOfSealedSegmentIsCovered pins the interleaving the stress test
// above can only hope for: the commit picks its file, a rotation seals
// and closes it, and only then does the commit's fsync run.
func TestSyncOfSealedSegmentIsCovered(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append([]byte("in the batch"))
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	f, target := l.seg, l.next
	l.mu.Unlock()
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	serr := f.Sync()
	if serr == nil {
		t.Fatal("fsync of a closed segment file succeeded")
	}
	l.committed(f, target, serr)
	if l.Wedged() {
		t.Fatalf("log wedged by %v on a segment rotation had already sealed", serr)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
}

// TestCloseReleasesDurableWaiters: a record the final commit in Close
// makes durable must read as durable to whoever waits for it. Whether
// the sync loop or Close commits the record is a race, so repeat until
// Close has certainly won it a few times.
func TestCloseReleasesDurableWaiters(t *testing.T) {
	for i := 0; i < 40; i++ {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		lsn, err := l.Append([]byte("last words"))
		if err != nil {
			t.Fatal(err)
		}
		waited := make(chan error, 1)
		go func() { waited <- l.WaitDurable(lsn) }()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-waited; err != nil {
			t.Fatalf("iteration %d: waiter stranded by Close: %v", i, err)
		}
		if _, recs, err := Open(dir, testOpts()); err != nil || len(recs) != 1 {
			t.Fatalf("iteration %d: replayed %d records (%v), want 1", i, len(recs), err)
		}
	}
}

// TestWedgeLosesExactlyTheUndurableSuffix: once the log wedges, what
// Progress reports durable is final, waiters beyond it fail, and a
// reopen finds exactly the durable prefix — the buffered tail is the
// suffix a power failure would have taken.
func TestWedgeLosesExactlyTheUndurableSuffix(t *testing.T) {
	dir := t.TempDir()
	const crashAt = 64
	l, _, err := Open(dir, Options{FailAppend: func(lsn uint64) bool { return lsn == crashAt }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashAt; i++ {
		if _, err := l.Append([]byte("pending")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Append([]byte("boom")); err != ErrWedged {
		t.Fatalf("crash-point append error = %v, want ErrWedged", err)
	}
	l.Close() // waits out a commit that was in flight when the log wedged
	_, durable, _, err := l.Progress()
	if err == nil {
		t.Fatal("wedged log reports no failure")
	}
	for lsn := uint64(0); lsn < crashAt; lsn++ {
		if err := l.WaitDurable(lsn); (err == nil) != (lsn < durable) {
			t.Fatalf("WaitDurable(%d) = %v with durable mark %d", lsn, err, durable)
		}
	}
	_, recs, err := Open(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(recs)) != durable {
		t.Fatalf("replayed %d records, durable mark was %d", len(recs), durable)
	}
	t.Logf("crash at record %d lost the %d undurable ones before it", crashAt, crashAt-durable)
}

func TestFailAppendWedgesLog(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.FailAppend = func(lsn uint64) bool { return lsn == 5 }
	l, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("ok")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if _, err := l.Append([]byte("boom")); err != ErrWedged {
		t.Fatalf("crash-point append error = %v, want ErrWedged", err)
	}
	if !l.Wedged() {
		t.Fatal("log not wedged after crash point")
	}
	// Wedged is permanent, even for records past the crash point.
	if _, err := l.AppendDurable([]byte("later")); err != ErrWedged {
		t.Fatalf("post-wedge append error = %v, want ErrWedged", err)
	}
}
