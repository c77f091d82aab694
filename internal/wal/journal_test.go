package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sintra/internal/wire"
)

func TestJournalSlotSubstitution(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	out, replayed, err := j.RecordOutbound("aba", "svc/r1", "BVAL", "bval/1/1", []byte("vote-A"))
	if err != nil || replayed || !bytes.Equal(out, []byte("vote-A")) {
		t.Fatalf("fresh slot: out=%q replayed=%v err=%v", out, replayed, err)
	}
	// Same slot, conflicting bytes: the journaled payload wins.
	out, replayed, err = j.RecordOutbound("aba", "svc/r1", "BVAL", "bval/1/1", []byte("vote-B"))
	if err != nil || !replayed || !bytes.Equal(out, []byte("vote-A")) {
		t.Fatalf("slot hit: out=%q replayed=%v err=%v", out, replayed, err)
	}
	// Different slot in the same instance is independent.
	out, replayed, err = j.RecordOutbound("aba", "svc/r1", "BVAL", "bval/1/0", []byte("vote-B"))
	if err != nil || replayed || !bytes.Equal(out, []byte("vote-B")) {
		t.Fatalf("sibling slot: out=%q replayed=%v err=%v", out, replayed, err)
	}
	j.Close()

	// Restart: the ledger replays and still substitutes.
	j2, err := OpenJournal(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Recovered() != 2 {
		t.Fatalf("recovered %d outbound records, want 2", j2.Recovered())
	}
	out, replayed, err = j2.RecordOutbound("aba", "svc/r1", "BVAL", "bval/1/1", []byte("vote-C"))
	if err != nil || !replayed || !bytes.Equal(out, []byte("vote-A")) {
		t.Fatalf("post-restart slot hit: out=%q replayed=%v err=%v", out, replayed, err)
	}
}

func TestJournalDeliverFrontier(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if j.LastDelivered() != -1 {
		t.Fatalf("fresh journal frontier = %d", j.LastDelivered())
	}
	for seq := int64(0); seq < 20; seq++ {
		if err := j.RecordDeliver(seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	j2, err := OpenJournal(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.LastDelivered() != 19 {
		t.Fatalf("replayed frontier = %d, want 19", j2.LastDelivered())
	}
}

func TestJournalCompactBoundsDisk(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentSize = 512
	j, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate rounds: outbound records + delivers, then checkpoint
	// compactions that retire old instances.
	for round := 0; round < 30; round++ {
		inst := fmt.Sprintf("svc/dir/r%d", round)
		for s := 0; s < 4; s++ {
			if _, _, err := j.RecordOutbound("rbc", inst, "ECHO", fmt.Sprintf("echo/%d", s), bytes.Repeat([]byte{byte(s)}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		j.RecordDeliver(int64(round), nil)
		if round%10 == 9 {
			stable := round - 5
			j.Forget(func(_, instance, _ string) bool {
				var r int
				if _, err := fmt.Sscanf(instance, "svc/dir/r%d", &r); err != nil {
					return false
				}
				return r < stable
			})
			if err := j.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	size := j.Size()
	// 30 rounds * 4 * 64B payloads ≈ 8KB raw; compaction must keep only
	// the live tail.
	if size > 4096 {
		t.Fatalf("WAL size %dB not bounded by compaction", size)
	}
	live := j.Entries()
	j.Close()

	j2, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Entries() != live {
		t.Fatalf("replay restored %d entries, want %d", j2.Entries(), live)
	}
	if j2.LastDelivered() != 29 {
		t.Fatalf("replay frontier = %d, want 29", j2.LastDelivered())
	}
	// Live slots still substitute after compaction + restart.
	out, replayed, err := j2.RecordOutbound("rbc", "svc/dir/r29", "ECHO", "echo/1", []byte("conflict"))
	if err != nil || !replayed || !bytes.Equal(out, bytes.Repeat([]byte{1}, 64)) {
		t.Fatalf("post-compaction slot hit: replayed=%v err=%v", replayed, err)
	}
}

func TestJournalWedgedRefusesRecords(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.FailAppend = func(lsn uint64) bool { return lsn >= 3 }
	j, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if _, _, err := j.RecordOutbound("rbc", "x", "ECHO", fmt.Sprintf("e/%d", i), []byte("p")); err != nil {
			t.Fatalf("pre-crash record %d: %v", i, err)
		}
	}
	if _, _, err := j.RecordOutbound("rbc", "x", "ECHO", "e/3", []byte("p")); err == nil {
		t.Fatal("crash-point record succeeded; the replica would transmit unjournaled")
	}
	if !j.Wedged() {
		t.Fatal("journal not wedged")
	}
	// Slots journaled before the crash still substitute (mute for new
	// commitments, repeatable for old ones).
	out, replayed, err := j.RecordOutbound("rbc", "x", "ECHO", "e/0", []byte("other"))
	if err != nil || !replayed || !bytes.Equal(out, []byte("p")) {
		t.Fatalf("pre-crash slot after wedge: out=%q replayed=%v err=%v", out, replayed, err)
	}
}

func TestRecordEncodingRoundTrip(t *testing.T) {
	recs := []Rec{
		{Kind: kindOutbound, Protocol: "rbc", Instance: "svc/dir/r3/p1", MsgType: "ECHO", Slot: "echo", Payload: []byte{1, 2, 3}},
		{Kind: kindOutbound, Protocol: "", Instance: "", MsgType: "", Slot: "", Payload: nil},
		{Kind: kindDeliver, Seq: 1 << 40, Digest: []byte("digest")},
		{Kind: kindDeliver, Seq: -1, Digest: nil},
	}
	for _, want := range recs {
		var enc []byte
		switch want.Kind {
		case kindOutbound:
			enc = encodeOutbound(want.Protocol, want.Instance, want.MsgType, want.Slot, want.Payload)
		case kindDeliver:
			enc = encodeDeliver(want.Seq, want.Digest)
		}
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.Kind != want.Kind || got.Protocol != want.Protocol || got.Instance != want.Instance ||
			got.MsgType != want.MsgType || got.Slot != want.Slot || !bytes.Equal(got.Payload, want.Payload) ||
			got.Seq != want.Seq || !bytes.Equal(got.Digest, want.Digest) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}

	snap := encodeSnap(41, []Rec{
		{Protocol: "aba", Instance: "i", MsgType: "BVAL", Slot: "bval/1/0", Payload: []byte("x")},
		{Protocol: "abc", Instance: "j", MsgType: "PROPOSAL", Slot: "prop/7", Payload: []byte("y")},
	})
	got, err := DecodeRecord(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != kindSnap || got.Seq != 41 || len(got.Entries) != 2 || got.Entries[1].Slot != "prop/7" {
		t.Fatalf("snap round trip: %+v", got)
	}
}

// TestJournalRefusesOtherFormats: a directory written before format
// markers (records, no marker) or marked with another wire format is
// refused by name and left as it was, never replayed.
func TestJournalRefusesOtherFormats(t *testing.T) {
	old := t.TempDir()
	log, _, err := Open(old, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append(encodeOutbound("mvba", "svc/r1", "VOTE", "vote/1", []byte("gob-era vote"))); err != nil {
		t.Fatal(err)
	}
	log.Close()
	segments, _ := segmentNames(old)
	before, _ := os.ReadFile(filepath.Join(old, segments[0]))

	other := t.TempDir()
	if err := os.WriteFile(filepath.Join(other, "FORMAT"), []byte("6"), 0o644); err != nil {
		t.Fatal(err)
	}
	this := fmt.Sprint("format ", wire.Format)
	for dir, names := range map[string][]string{old: {"format 1", this}, other: {`"6"`, this}} {
		j, err := OpenJournal(dir, testOpts())
		if !errors.Is(err, ErrFormat) {
			if j != nil {
				j.Close()
			}
			t.Fatalf("%s opened (err %v), want ErrFormat", dir, err)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name %s", err, name)
			}
		}
	}
	after, _ := os.ReadFile(filepath.Join(old, segments[0]))
	if _, err := os.Stat(filepath.Join(old, "FORMAT")); err == nil || !bytes.Equal(before, after) {
		t.Fatal("a refused directory was modified")
	}
}

// TestJournalFormatMarker: a fresh directory is marked before its first
// record, round-trips, and keeps the marker across compaction.
func TestJournalFormatMarker(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	marker, err := os.ReadFile(filepath.Join(dir, "FORMAT"))
	if err != nil || string(marker) != fmt.Sprint(wire.Format) {
		t.Fatalf("fresh journal marker %q (%v), want format %d", marker, err, wire.Format)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := j.RecordOutbound("aba", "svc/r1", "BVAL", fmt.Sprintf("bval/%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := os.Stat(filepath.Join(dir, "FORMAT")); err != nil {
		t.Fatalf("marker gone after compaction: %v", err)
	}
	j2, err := OpenJournal(dir, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Entries() != 3 {
		t.Fatalf("reopened ledger holds %d entries, want 3", j2.Entries())
	}
}
