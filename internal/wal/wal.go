// Package wal implements a segmented append-only write-ahead log with
// CRC32C-framed records, commit-on-idle group commit (a commit starts the
// moment one is wanted and none is in flight; records appended during an
// fsync share the next one), and torn-tail detection on open. It backs
// the protocol journal
// (journal.go) that makes crash recovery amnesia-free: a replica that
// durably records every protocol-critical message before first
// transmission can be restarted without risk of equivocation.
//
// On-disk layout: the log directory holds segments named
// "<first-LSN, 16 hex digits>.wal". Each segment is a concatenation of
// frames:
//
//	[4B little-endian payload length][4B CRC32C of payload][payload]
//
// LSNs are dense record indices (not byte offsets). Truncation removes
// whole dead segments only, so the first surviving segment's name
// anchors the LSN sequence after a restart.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"sintra/internal/obs"
)

const (
	frameHeaderSize = 8
	// MaxRecordSize bounds a single record; larger length prefixes are
	// treated as corruption (torn or garbage tail).
	MaxRecordSize = 64 << 20

	segmentSuffix      = ".wal"
	defaultSegmentSize = 4 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWedged is returned once the log has hit an unrecoverable append
// failure (a real write error, or an injected crash point). A wedged
// log never accepts another record: callers must treat the replica as
// crashed — in particular the journal-before-send invariant turns a
// wedged log into a mute replica, never an equivocating one.
var ErrWedged = errors.New("wal: log is wedged")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrTooLarge is returned for records above MaxRecordSize.
var ErrTooLarge = errors.New("wal: record exceeds maximum size")

// Options configures a Log.
type Options struct {
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 4 MiB).
	SegmentSize int64
	// NoSync disables fsync entirely (tests and benchmarks on throwaway
	// data): a record counts as committed once the file has its bytes.
	NoSync bool
	// FailAppend is a crash-injection hook: when it returns true for
	// the LSN about to be assigned, the log wedges permanently before
	// writing the record. Used by the fault simulator to model a crash
	// at an exact record index, deterministically.
	FailAppend func(lsn uint64) bool
}

// Record is one replayed log entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Log is a segmented append-only log. All methods are safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	seg      *os.File
	tail     []byte // frames appended but not yet written to seg
	segStart uint64 // LSN of the active segment's first record
	segSize  int64  // bytes of the active segment, tail included
	base     uint64 // LSN of the oldest surviving record
	next     uint64 // next LSN to assign
	synced   uint64 // LSNs below this are durable
	diskSize int64  // bytes across sealed segments (excl. active)
	failed   error  // why the log is wedged; nil while it is not
	closed   bool
	changed  chan struct{} // closed and replaced when synced, wedged or closed changes

	fsyncs        *obs.Counter   // commits that reached the disk
	commitRecords *obs.Histogram // records covered per commit

	syncReq chan struct{}
	quit    chan struct{}
	done    chan struct{}

	// TornBytes reports how many trailing bytes Open discarded as a
	// torn or corrupted tail (diagnostics; set once at open).
	TornBytes int64
}

// Open opens (or creates) the log in dir, replays every intact record,
// truncates any torn or corrupted tail, and returns the recovered
// records in order. The returned payload slices are private copies.
func Open(dir string, opts Options) (*Log, []Record, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	names, err := segmentNames(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:     dir,
		opts:    opts,
		changed: make(chan struct{}),
		syncReq: make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}

	var records []Record
	for i, name := range names {
		start, err := segmentStart(name)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: bad segment name %q: %w", name, err)
		}
		if i == 0 {
			l.base = start
			l.next = start
		} else if start != l.next {
			return nil, nil, fmt.Errorf("wal: segment %q starts at LSN %d, want %d", name, start, l.next)
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		recs, good := ScanSegment(data)
		for _, p := range recs {
			records = append(records, Record{LSN: l.next, Payload: p})
			l.next++
		}
		if good < int64(len(data)) {
			// Torn or corrupted tail: truncate here and drop any later
			// segments — nothing past the damage is trustworthy.
			l.TornBytes += int64(len(data)) - good
			if err := os.Truncate(path, good); err != nil {
				return nil, nil, err
			}
			for _, later := range names[i+1:] {
				st, err2 := os.Stat(filepath.Join(dir, later))
				if err2 == nil {
					l.TornBytes += st.Size()
				}
				if err := os.Remove(filepath.Join(dir, later)); err != nil {
					return nil, nil, err
				}
			}
			names = names[:i+1]
		}
		if i == len(names)-1 {
			l.segStart = start
			l.segSize = good
		} else {
			l.diskSize += good
		}
		if good < int64(len(data)) {
			break
		}
	}
	if len(names) == 0 {
		if err := l.createSegmentLocked(0); err != nil {
			return nil, nil, err
		}
	} else {
		last := filepath.Join(dir, names[len(names)-1])
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		l.seg = f
	}
	l.synced = l.next
	go l.syncLoop()
	return l, records, nil
}

// segmentNames returns the sorted segment file names in dir.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), segmentSuffix) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func segmentStart(name string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 16, 64)
}

func segmentName(start uint64) string {
	return fmt.Sprintf("%016x%s", start, segmentSuffix)
}

// ScanSegment parses frames from raw segment bytes, returning the
// decoded payloads and the byte offset of the first damage (== len(b)
// when the segment is fully intact). It never panics, whatever the
// input — the recovery path and the fuzzer both rely on that.
func ScanSegment(b []byte) (payloads [][]byte, good int64) {
	off := int64(0)
	for {
		p, n, err := DecodeFrame(b[off:])
		if err != nil {
			return payloads, off
		}
		if n == 0 { // clean end of data
			return payloads, off
		}
		payloads = append(payloads, p)
		off += int64(n)
	}
}

// DecodeFrame parses a single frame at the start of b. It returns the
// payload (a copy) and the number of bytes consumed. A clean end of
// input returns (nil, 0, nil); a short, oversized, or checksum-failing
// frame returns an error. Never panics.
func DecodeFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) == 0 {
		return nil, 0, nil
	}
	if len(b) < frameHeaderSize {
		return nil, 0, errors.New("wal: short frame header")
	}
	length := binary.LittleEndian.Uint32(b)
	sum := binary.LittleEndian.Uint32(b[4:])
	if length > MaxRecordSize {
		return nil, 0, ErrTooLarge
	}
	end := frameHeaderSize + int(length)
	if len(b) < end {
		return nil, 0, errors.New("wal: short frame payload")
	}
	body := b[frameHeaderSize:end]
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, 0, errors.New("wal: frame checksum mismatch")
	}
	payload = make([]byte, length)
	copy(payload, body)
	return payload, end, nil
}

// encodeFrame appends the frame for payload to dst.
func encodeFrame(dst []byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// createSegmentLocked opens a fresh active segment whose first record
// will be LSN start. Caller holds l.mu (or has exclusive access).
func (l *Log) createSegmentLocked(start uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(start)), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.seg = f
	l.segStart = start
	l.segSize = 0
	syncDir(l.dir)
	return nil
}

// syncDir best-effort fsyncs the directory so segment creation and
// removal survive power failure on filesystems that need it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Append buffers one record behind the active segment, requests a commit
// and returns the record's LSN; the record is durable once that commit is
// done (WaitDurable, Progress). A crash point wedges the log permanently.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordSize {
		return 0, ErrTooLarge
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.failed != nil {
		return 0, l.failed
	}
	if l.opts.FailAppend != nil && l.opts.FailAppend(l.next) {
		l.wedgeLocked(nil)
		return 0, ErrWedged
	}
	if l.segSize >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			l.wedgeLocked(err)
			return 0, err
		}
	}
	l.tail = encodeFrame(l.tail, payload)
	l.segSize += int64(frameHeaderSize + len(payload))
	lsn := l.next
	l.next++
	if l.opts.NoSync {
		// No fsync: committed once the file has it (byte-exact crash tests).
		if err := l.flushLocked(); err != nil {
			l.wedgeLocked(err)
			return 0, err
		}
		l.synced = l.next
		return lsn, nil
	}
	select {
	case l.syncReq <- struct{}{}:
	default: // a commit is already requested; it will cover this record
	}
	return lsn, nil
}

// flushLocked writes the buffered frames to the active segment with one
// write. Caller holds l.mu.
func (l *Log) flushLocked() error {
	if len(l.tail) == 0 {
		return nil
	}
	_, err := l.seg.Write(l.tail)
	l.tail = l.tail[:0]
	return err
}

// wedgeLocked fails the log for good: nothing unsynced becomes durable
// any more (the buffered tail is the suffix a power failure loses).
func (l *Log) wedgeLocked(cause error) {
	if l.failed == nil {
		l.failed = ErrWedged
		if cause != nil {
			l.failed = fmt.Errorf("%w: %v", ErrWedged, cause)
		}
	}
	l.notifyLocked()
}

// notifyLocked wakes everyone watching synced, wedged or closed.
func (l *Log) notifyLocked() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// rotateLocked seals the active segment (fsynced so earlier records
// stay durable independently of the new file) and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.seg.Sync(); err != nil {
			return err
		}
	}
	if err := l.seg.Close(); err != nil {
		return err
	}
	l.diskSize += l.segSize
	if l.synced < l.next {
		l.synced = l.next // sealed segment is fully durable
		l.notifyLocked()
	}
	return l.createSegmentLocked(l.next)
}

// Progress reports how many records have been appended and how many of
// them are durable (record lsn is durable once durable > lsn), a channel
// closed when durable next moves or the log fails, and that failure, after
// which durable is final.
func (l *Log) Progress() (appended, durable uint64, changed <-chan struct{}, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err = l.failed; err == nil && l.closed {
		err = ErrClosed
	}
	return l.next, l.synced, l.changed, err
}

// WaitDurable blocks until the commit covering record lsn completes. An
// error means the record is not durable and never will be.
func (l *Log) WaitDurable(lsn uint64) error {
	for {
		_, durable, changed, err := l.Progress()
		if durable > lsn {
			return nil
		}
		if err != nil {
			return err
		}
		<-changed
	}
}

// AppendDurable is Append followed by WaitDurable.
func (l *Log) AppendDurable(payload []byte) (uint64, error) {
	lsn, err := l.Append(payload)
	if err != nil {
		return lsn, err
	}
	return lsn, l.WaitDurable(lsn)
}

// syncLoop is the group-commit goroutine. It commits the moment one is
// requested and none is in flight; records appended during an fsync have
// re-armed syncReq and form the next batch: the fsync is the window.
func (l *Log) syncLoop() {
	defer close(l.done)
	for {
		select {
		case <-l.quit:
			return
		case <-l.syncReq:
			l.commit()
		}
	}
}

// commit writes the buffered frames with one write and fsyncs them.
func (l *Log) commit() {
	l.mu.Lock()
	if l.failed != nil || l.synced == l.next {
		l.mu.Unlock()
		return
	}
	err := l.flushLocked()
	f, target := l.seg, l.next
	l.mu.Unlock()
	if err == nil {
		err = f.Sync() // outside the lock: appends go on, and form the next batch
	}
	l.committed(f, target, err)
}

// committed closes out a commit that flushed records below target to f
// and fsynced it with result err.
func (l *Log) committed(f *os.File, target uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil {
		// A sync that finds its file sealed (os.ErrClosed) is covered:
		// rotation fsynced the segment before closing it.
		if f == l.seg {
			l.wedgeLocked(err)
		}
		return
	}
	l.fsyncs.Inc()
	if target > l.synced {
		l.commitRecords.Observe(int64(target - l.synced))
		l.synced = target
		l.notifyLocked()
	}
}

// Rotate seals the active segment and starts a new one regardless of
// size; the next record becomes the first of the new segment. Used by
// the journal so a snapshot record opens a segment of its own, letting
// TruncateBefore drop the entire history preceding it.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return ErrWedged
	}
	if l.segSize == 0 {
		return nil // already fresh
	}
	return l.rotateLocked()
}

// TruncateBefore removes every sealed segment whose records all lie
// below lsn. The active segment is never removed. Reclaims disk for
// history made obsolete by a stable checkpoint.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	names, err := segmentNames(l.dir)
	if err != nil {
		return err
	}
	for i, name := range names {
		start, err := segmentStart(name)
		if err != nil {
			continue
		}
		if start == l.segStart {
			break // never the active segment
		}
		// A sealed segment's records run up to the next segment's start.
		var end uint64
		if i+1 < len(names) {
			if end, err = segmentStart(names[i+1]); err != nil {
				continue
			}
		} else {
			end = l.next
		}
		if end > lsn {
			break
		}
		path := filepath.Join(l.dir, name)
		st, err2 := os.Stat(path)
		if err := os.Remove(path); err != nil {
			return err
		}
		if err2 == nil {
			l.diskSize -= st.Size()
		}
		if start == l.base {
			l.base = end
		}
	}
	syncDir(l.dir)
	return nil
}

// Size returns the total bytes currently on disk across all segments.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.diskSize + l.segSize
}

// Wedged reports whether the log has permanently failed.
func (l *Log) Wedged() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed != nil
}

// SetObserver reports commits into reg: wal.fsyncs counts them and
// wal.commit.records is the number of records each one covered.
func (l *Log) SetObserver(reg *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fsyncs = reg.Counter("wal.fsyncs")
	l.commitRecords = reg.Histogram("wal.commit.records")
}

// Close commits outstanding records (unless the log is wedged) and
// releases the log; waiters that last commit covered see their record
// durable, not ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()

	close(l.quit)
	<-l.done

	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.failed == nil {
		err = l.flushLocked()
		if err == nil && !l.opts.NoSync && l.synced < l.next {
			err = l.seg.Sync()
		}
		if err == nil {
			l.synced = l.next
		}
	}
	if cerr := l.seg.Close(); err == nil {
		err = cerr
	}
	l.seg = nil
	l.closed = true
	l.notifyLocked()
	return err
}
