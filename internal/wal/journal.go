// Journal: the protocol-level ledger kept on top of the raw log. It
// records every protocol-critical outbound message *before first
// transmission* (the sender holds the message back until Progress shows
// the record durable) keyed by a slot — a string that uniquely identifies a
// commitment an honest party never fills twice with different bytes
// (an RBC ECHO, an ABA round-r BVAL for value v, a signed round-r ABC
// proposal, ...). After a crash the replayed ledger substitutes the
// journaled bytes for any re-send of the same slot, so a recovered
// replica can only ever repeat itself, never contradict itself.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sintra/internal/obs"
	"sintra/internal/wire"
)

// Record kinds (first byte of a WAL record payload).
const (
	kindOutbound = 'O' // slot-keyed outbound message
	kindDeliver  = 'D' // delivered-sequence state at apply time
	kindSnap     = 'S' // compacted ledger + delivery frontier
)

// ErrCorruptRecord is returned when a record payload does not parse.
// Recovery skips such records (counted) rather than failing: a WAL
// that decodes its frames but not a payload indicates a version skew
// or bit rot that must not take the replica down.
var ErrCorruptRecord = errors.New("wal: corrupt journal record")

// Rec is one decoded journal record.
type Rec struct {
	Kind byte
	// Outbound fields (kindOutbound, and each snapshot entry).
	Protocol, Instance, MsgType, Slot string
	Payload                           []byte
	// Deliver fields (kindDeliver, and the snapshot frontier).
	Seq    int64
	Digest []byte
	// Snapshot ledger (kindSnap).
	Entries []Rec
}

type ledgerEntry struct {
	msgType string
	payload []byte
}

// Journal is the durable vote ledger. Safe for concurrent use.
type Journal struct {
	mu        sync.Mutex
	log       *Log
	ledger    map[string]ledgerEntry
	delivered int64 // highest seq recorded as applied; -1 when none

	recovered int // outbound records restored at open (diagnostics, tests)
}

// journalKey builds the ledger key. Slots are scoped to one protocol
// instance; 0x1f never appears in instance or slot names.
func journalKey(protocol, instance, slot string) string {
	return protocol + "\x1f" + instance + "\x1f" + slot
}

// ErrFormat is OpenJournal's refusal of a directory journaled in another
// wire.Format: this build cannot decode its records, so it does not replay them.
var ErrFormat = errors.New("wal: journal of another wire format")

// checkFormat refuses dir if its FORMAT file (beside the segments, which
// are all Compact and TruncateBefore remove) names another wire.Format, or
// if it holds records but no marker (format 1); it marks a fresh dir before
// its first record: written aside, synced, renamed.
func checkFormat(dir string, hasRecords bool, opts Options) error {
	want := fmt.Sprint(wire.Format)
	path := filepath.Join(dir, "FORMAT")
	got, err := os.ReadFile(path)
	switch {
	case err == nil && string(got) == want:
		return nil
	case err == nil:
		return fmt.Errorf("%w: %s is marked format %q, this build journals format %s", ErrFormat, dir, got, want)
	case !errors.Is(err, os.ErrNotExist):
		return err
	case hasRecords:
		return fmt.Errorf("%w: %s holds records but no format marker (format 1), this build journals format %s", ErrFormat, dir, want)
	}
	f, err := os.Create(path + ".tmp")
	if err == nil {
		if _, err = f.WriteString(want); err == nil && !opts.NoSync {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	syncDir(dir)
	return err
}

// OpenJournal opens the WAL in dir and replays it into a fresh ledger; a
// dir of another wire format is refused with ErrFormat.
func OpenJournal(dir string, opts Options) (*Journal, error) {
	log, records, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := checkFormat(dir, len(records) > 0, opts); err != nil {
		log.Close()
		return nil, err
	}
	j := &Journal{log: log, ledger: make(map[string]ledgerEntry), delivered: -1}
	for _, r := range records {
		rec, err := DecodeRecord(r.Payload)
		if err != nil {
			continue // an undecodable record restores nothing
		}
		j.applyRec(rec)
	}
	return j, nil
}

func (j *Journal) applyRec(rec Rec) {
	switch rec.Kind {
	case kindOutbound:
		j.ledger[journalKey(rec.Protocol, rec.Instance, rec.Slot)] = ledgerEntry{msgType: rec.MsgType, payload: rec.Payload}
		j.recovered++
	case kindDeliver:
		if rec.Seq > j.delivered {
			j.delivered = rec.Seq
		}
	case kindSnap:
		// A snapshot supersedes everything before it.
		j.ledger = make(map[string]ledgerEntry, len(rec.Entries))
		for _, e := range rec.Entries {
			j.ledger[journalKey(e.Protocol, e.Instance, e.Slot)] = ledgerEntry{msgType: e.MsgType, payload: e.Payload}
		}
		if rec.Seq > j.delivered {
			j.delivered = rec.Seq
		}
	}
}

// RecordOutbound appends one slot-keyed outbound message to the log and
// returns the bytes that must actually be transmitted — once Progress
// reports the log durable up to this append (the journal-before-send
// invariant; the caller gates the transmission, RecordOutbound does not
// wait). On a fresh slot that is the given payload. On a slot already in
// the ledger — a restarted instance re-deciding the same step, or a
// second fill in the same run — it returns the first fill's bytes
// instead, with replayed=true; if the caller's bytes differ the recorded
// ones still win, which is exactly the "repeat, never contradict"
// guarantee. An error means the log refused the record and the message
// must not be sent.
func (j *Journal) RecordOutbound(protocol, instance, msgType, slot string, payload []byte) (send []byte, replayed bool, err error) {
	key := journalKey(protocol, instance, slot)
	j.mu.Lock()
	defer j.mu.Unlock()
	if e, ok := j.ledger[key]; ok {
		return e.payload, true, nil
	}
	if _, err := j.log.Append(encodeOutbound(protocol, instance, msgType, slot, payload)); err != nil {
		return nil, false, err
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	j.ledger[key] = ledgerEntry{msgType: msgType, payload: cp}
	return payload, false, nil
}

// Progress reports the log's appended and durable marks; see
// Log.Progress.
func (j *Journal) Progress() (appended, durable uint64, changed <-chan struct{}, err error) {
	return j.log.Progress()
}

// RecordDeliver logs the delivered-sequence state at apply time. It
// does not wait for the commit: delivery state is independently
// recoverable from checkpoint catch-up, so the record only needs to
// reach the log ordering, not stable storage, before the next step.
func (j *Journal) RecordDeliver(seq int64, digest []byte) error {
	j.mu.Lock()
	if seq > j.delivered {
		j.delivered = seq
	}
	j.mu.Unlock()
	_, err := j.log.Append(encodeDeliver(seq, digest))
	return err
}

// LastDelivered returns the highest delivered sequence the journal has
// seen (from this run or replay), or -1.
func (j *Journal) LastDelivered() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.delivered
}

// Forget drops ledger entries the caller proves obsolete (instances or
// slots retired below the stable checkpoint). Memory-only; the disk
// copy disappears at the next Compact.
func (j *Journal) Forget(drop func(protocol, instance, slot string) bool) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for key := range j.ledger {
		proto, inst, slot := splitKey(key)
		if drop(proto, inst, slot) {
			delete(j.ledger, key)
			n++
		}
	}
	return n
}

func splitKey(key string) (protocol, instance, slot string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '\x1f' {
			for k := i + 1; k < len(key); k++ {
				if key[k] == '\x1f' {
					return key[:i], key[i+1 : k], key[k+1:]
				}
			}
			return key[:i], key[i+1:], ""
		}
	}
	return key, "", ""
}

// Compact writes a snapshot of the live ledger and the delivery
// frontier into a fresh segment, then deletes every earlier segment.
// Driven by checkpoint stability: state below the stable checkpoint is
// recoverable via catch-up, so only the live ledger needs to survive.
func (j *Journal) Compact() error {
	j.mu.Lock()
	entries := make([]Rec, 0, len(j.ledger))
	for key, e := range j.ledger {
		proto, inst, slot := splitKey(key)
		entries = append(entries, Rec{Protocol: proto, Instance: inst, MsgType: e.msgType, Slot: slot, Payload: e.payload})
	}
	delivered := j.delivered
	j.mu.Unlock()

	if err := j.log.Rotate(); err != nil {
		return err
	}
	lsn, err := j.log.AppendDurable(encodeSnap(delivered, entries))
	if err != nil {
		return err
	}
	return j.log.TruncateBefore(lsn)
}

// Entries returns the live ledger size.
func (j *Journal) Entries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ledger)
}

// Recovered returns how many outbound records the opening replay
// restored.
func (j *Journal) Recovered() int { return j.recovered }

// Size returns the WAL's on-disk size in bytes.
func (j *Journal) Size() int64 { return j.log.Size() }

// Wedged reports whether the underlying log has permanently failed.
func (j *Journal) Wedged() bool { return j.log.Wedged() }

// TornBytes reports how many trailing bytes the opening replay discarded
// as a torn or corrupted tail.
func (j *Journal) TornBytes() int64 { return j.log.TornBytes }

// SetObserver reports the log's commits into reg; see Log.SetObserver.
func (j *Journal) SetObserver(reg *obs.Registry) { j.log.SetObserver(reg) }

// Close releases the journal, committing outstanding records.
func (j *Journal) Close() error { return j.log.Close() }

// --- record encoding -------------------------------------------------
//
// Hand-rolled little-endian framing (not gob): the decoder must be
// total — bounds-checked against arbitrary bytes, fuzzed by
// FuzzWALRecordDecode — and the encoding must be stable across
// versions since it outlives the process that wrote it.

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendBytes(b []byte, p []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p)))
	return append(b, p...)
}

func readStr(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}

func readBytes(b []byte) ([]byte, []byte, bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > MaxRecordSize || len(b) < n {
		return nil, nil, false
	}
	out := make([]byte, n)
	copy(out, b[:n])
	return out, b[n:], true
}

func encodeOutboundBody(b []byte, protocol, instance, msgType, slot string, payload []byte) []byte {
	b = appendStr(b, protocol)
	b = appendStr(b, instance)
	b = appendStr(b, msgType)
	b = appendStr(b, slot)
	return appendBytes(b, payload)
}

func encodeOutbound(protocol, instance, msgType, slot string, payload []byte) []byte {
	return encodeOutboundBody([]byte{kindOutbound}, protocol, instance, msgType, slot, payload)
}

func encodeDeliver(seq int64, digest []byte) []byte {
	b := []byte{kindDeliver}
	b = binary.LittleEndian.AppendUint64(b, uint64(seq))
	return appendBytes(b, digest)
}

func encodeSnap(delivered int64, entries []Rec) []byte {
	b := []byte{kindSnap}
	b = binary.LittleEndian.AppendUint64(b, uint64(delivered))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entries)))
	for _, e := range entries {
		b = encodeOutboundBody(b, e.Protocol, e.Instance, e.MsgType, e.Slot, e.Payload)
	}
	return b
}

func decodeOutboundBody(b []byte) (Rec, []byte, bool) {
	var rec Rec
	var ok bool
	if rec.Protocol, b, ok = readStr(b); !ok {
		return rec, nil, false
	}
	if rec.Instance, b, ok = readStr(b); !ok {
		return rec, nil, false
	}
	if rec.MsgType, b, ok = readStr(b); !ok {
		return rec, nil, false
	}
	if rec.Slot, b, ok = readStr(b); !ok {
		return rec, nil, false
	}
	if rec.Payload, b, ok = readBytes(b); !ok {
		return rec, nil, false
	}
	rec.Kind = kindOutbound
	return rec, b, true
}

// DecodeRecord parses one journal record payload. Total: returns
// ErrCorruptRecord instead of panicking on any malformed input.
func DecodeRecord(b []byte) (Rec, error) {
	if len(b) == 0 {
		return Rec{}, ErrCorruptRecord
	}
	kind, body := b[0], b[1:]
	switch kind {
	case kindOutbound:
		rec, rest, ok := decodeOutboundBody(body)
		if !ok || len(rest) != 0 {
			return Rec{}, ErrCorruptRecord
		}
		return rec, nil
	case kindDeliver:
		if len(body) < 8 {
			return Rec{}, ErrCorruptRecord
		}
		seq := int64(binary.LittleEndian.Uint64(body))
		digest, rest, ok := readBytes(body[8:])
		if !ok || len(rest) != 0 {
			return Rec{}, ErrCorruptRecord
		}
		return Rec{Kind: kindDeliver, Seq: seq, Digest: digest}, nil
	case kindSnap:
		if len(body) < 12 {
			return Rec{}, ErrCorruptRecord
		}
		seq := int64(binary.LittleEndian.Uint64(body))
		count := binary.LittleEndian.Uint32(body[8:])
		body = body[12:]
		// Each entry needs at least 4 string headers + payload header.
		if count > uint32(len(body)/12+1) {
			return Rec{}, ErrCorruptRecord
		}
		entries := make([]Rec, 0, count)
		for i := uint32(0); i < count; i++ {
			e, rest, ok := decodeOutboundBody(body)
			if !ok {
				return Rec{}, ErrCorruptRecord
			}
			entries = append(entries, e)
			body = rest
		}
		if len(body) != 0 {
			return Rec{}, ErrCorruptRecord
		}
		return Rec{Kind: kindSnap, Seq: seq, Entries: entries}, nil
	default:
		return Rec{}, ErrCorruptRecord
	}
}
