package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frame builds a well-formed frame around payload, for seeding.
func frame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// FuzzWALRecordDecode feeds arbitrary bytes through the full recovery
// decode path — segment frame scanning and journal record parsing —
// asserting it never panics and that accepted frames are internally
// consistent. The seed corpus mirrors what live sim logs contain:
// outbound and snapshot records, plus torn and bit-flipped
// variants of each.
func FuzzWALRecordDecode(f *testing.F) {
	// Harvested record shapes: the same kinds the engine journal writes
	// during a live run (see journal.go encode*).
	outbound := encodeOutbound("rbc", "svc/dir/r12/p0", "ECHO", "echo", []byte("payload-bytes"))
	vote := encodeOutbound("aba", "svc/dir/r12/m/3/t1", "BVAL", "bval/2/1", bytes.Repeat([]byte{0xab}, 48))
	prop := encodeOutbound("abc", "svc/dir", "PROPOSAL", "prop/12", bytes.Repeat([]byte{0x5a}, 200))
	snap := encodeSnap([]Rec{
		{Protocol: "ckpt", Instance: "svc/dir", MsgType: "SHARE", Slot: "share/4096", Payload: []byte("share")},
		{Protocol: "abc", Instance: "svc/dir", MsgType: "PROPOSAL", Slot: "prop/257", Payload: []byte("prop")},
	})

	f.Add(frame(outbound))
	f.Add(frame(vote))
	f.Add(frame(prop))
	f.Add(frame(snap))
	// Multi-record segment.
	f.Add(append(append(frame(outbound), frame(vote)...), frame(snap)...))
	// Torn tail: a frame cut mid-payload.
	f.Add(frame(prop)[:12])
	// Bit-flipped checksum.
	flipped := frame(vote)
	flipped[5] ^= 0x80
	f.Add(flipped)
	// Oversized length prefix.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// Truncated journal bodies of every kind.
	f.Add(frame(outbound[:3]))
	f.Add(frame(snap[:10]))
	f.Add(frame([]byte{'S', 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{})
	// Records of a format-10 journal: a delivery record (kind 'D') and a
	// snapshot with a delivery frontier before its count. Neither decodes
	// under this format; neither may panic.
	deliver := binary.LittleEndian.AppendUint64([]byte{'D'}, 4093)
	deliver = binary.LittleEndian.AppendUint32(deliver, 32)
	f.Add(frame(append(deliver, bytes.Repeat([]byte{7}, 32)...)))
	f.Add(frame(append(binary.LittleEndian.AppendUint64([]byte{'S'}, 4096), snap[1:]...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, good := ScanSegment(data)
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range [0,%d]", good, len(data))
		}
		for _, p := range payloads {
			rec, err := DecodeRecord(p)
			if err != nil {
				continue // undecodable records are skipped by recovery
			}
			switch rec.Kind {
			case kindOutbound:
			case kindSnap:
				for _, e := range rec.Entries {
					if e.Kind != kindOutbound {
						t.Fatalf("snap entry kind %q", e.Kind)
					}
				}
			default:
				t.Fatalf("decoded unknown kind %q", rec.Kind)
			}
			// A decoded outbound record must re-encode losslessly: the
			// substitution ledger depends on the payload surviving.
			if rec.Kind == kindOutbound {
				re := encodeOutbound(rec.Protocol, rec.Instance, rec.MsgType, rec.Slot, rec.Payload)
				if !bytes.Equal(re, p) {
					t.Fatalf("outbound record not canonical: %x != %x", re, p)
				}
			}
		}
	})
}
