// Chunked submission: a single oversized client payload is split into
// deterministic frames that ride the normal proposal/agreement path as
// independent payloads, and the ordering layer reassembles them after
// delivery. Without this, one huge payload wedges a whole round behind
// a single proposal; with it, the payload streams across as many rounds
// (and as many parties' batches) as the scheduler allows.
//
// Determinism is the load-bearing property. Every replica that submits
// the same client payload must produce byte-identical frames — the frame
// identifier is a digest prefix of the payload, never a random nonce —
// so the n copies submitted by n replicas dedup down to one delivery
// per frame. Reassembly state advances only on delivered frames, in
// delivery order, so it is identical across honest replicas at every
// sequence number and belongs to the checkpointed state (the core layer
// folds ChunkState into its snapshots).

package abc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sintra/internal/wire"
)

// DefaultChunkSize is the chunking threshold and frame body size when
// Config.ChunkSize is zero.
const DefaultChunkSize = 64 << 10

// maxChunksPerPayload bounds how many frames one payload may split into.
const maxChunksPerPayload = 4096

// maxChunkGroups bounds concurrent reassembly groups; beyond it the
// oldest incomplete group is evicted (deterministically: groups are
// ordered by first-frame delivery order).
const maxChunkGroups = 64

// chunkMagic prefixes every frame. Honest submissions below the chunk
// threshold are passed through untouched; a client payload that happens
// to begin with the magic and parse as a frame is treated as one — the
// interpretation is identical on every replica, so determinism holds.
var chunkMagic = [8]byte{'s', 'n', 't', 'r', 'C', 'H', 'K', '1'}

// chunkHeaderLen is magic(8) + id(16) + index(4) + total(4).
const chunkHeaderLen = 32

type chunkKey struct {
	id    [16]byte
	total int
}

type chunkGroup struct {
	have   int
	chunks [][]byte
}

// chunkID is the deterministic frame identifier: a digest prefix of the
// whole payload, so it doubles as the reassembly self-check.
func chunkID(payload []byte) [16]byte {
	d := sha256.Sum256(payload)
	var id [16]byte
	copy(id[:], d[:16])
	return id
}

// chunkCount returns how many frames a payload of the given length
// splits into.
func chunkCount(payloadLen, size int) int {
	return (payloadLen + size - 1) / size
}

// chunkFrames splits a payload into its frames.
func chunkFrames(payload []byte, size int) [][]byte {
	id := chunkID(payload)
	total := chunkCount(len(payload), size)
	frames := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		lo, hi := i*size, min((i+1)*size, len(payload))
		f := make([]byte, chunkHeaderLen+hi-lo)
		copy(f, chunkMagic[:])
		copy(f[8:], id[:])
		binary.BigEndian.PutUint32(f[24:], uint32(i))
		binary.BigEndian.PutUint32(f[28:], uint32(total))
		copy(f[chunkHeaderLen:], payload[lo:hi])
		frames = append(frames, f)
	}
	return frames
}

// parseFrame recognizes a chunk frame. ok is false for ordinary
// payloads, which pass through delivery untouched.
func parseFrame(p []byte) (id [16]byte, index, total int, chunk []byte, ok bool) {
	if len(p) <= chunkHeaderLen || !bytes.Equal(p[:8], chunkMagic[:]) {
		return id, 0, 0, nil, false
	}
	copy(id[:], p[8:24])
	index = int(binary.BigEndian.Uint32(p[24:]))
	total = int(binary.BigEndian.Uint32(p[28:]))
	if total < 2 || total > maxChunksPerPayload || index < 0 || index >= total {
		return id, 0, 0, nil, false
	}
	return id, index, total, p[chunkHeaderLen:], true
}

// feedFrame advances the reassembler with one delivered frame and
// returns the assembled payload when the frame completes its group.
// Dispatch goroutine only; all transitions are deterministic in the
// delivery order.
func (a *ABC) feedFrame(id [16]byte, index, total int, chunk []byte) ([]byte, bool) {
	k := chunkKey{id: id, total: total}
	g, ok := a.chunkGroups[k]
	if !ok {
		if len(a.chunkGroups) >= maxChunkGroups {
			a.evictOldestGroup()
		}
		g = &chunkGroup{chunks: make([][]byte, total)}
		a.chunkGroups[k] = g
		a.chunkOrder = append(a.chunkOrder, k)
	}
	if g.chunks[index] != nil {
		return nil, false // first frame per slot wins, deterministically
	}
	g.chunks[index] = chunk
	g.have++
	a.chunkGauge.Set(int64(len(a.chunkGroups)))
	if g.have < total {
		return nil, false
	}
	a.dropGroup(k)
	assembled := bytes.Join(g.chunks, nil)
	// Self-certification: the group id must be the payload's digest
	// prefix. A forged frame squatting on an (id, total, index) slot
	// poisons the group — every replica drops it identically.
	if chunkID(assembled) != id {
		a.chunksDropped.Inc()
		return nil, false
	}
	return assembled, true
}

// evictOldestGroup removes the oldest incomplete group.
func (a *ABC) evictOldestGroup() {
	if len(a.chunkOrder) == 0 {
		return
	}
	k := a.chunkOrder[0]
	a.dropGroup(k)
	a.chunksDropped.Inc()
}

func (a *ABC) dropGroup(k chunkKey) {
	delete(a.chunkGroups, k)
	for i, ok := range a.chunkOrder {
		if ok == k {
			a.chunkOrder = append(a.chunkOrder[:i], a.chunkOrder[i+1:]...)
			break
		}
	}
	a.chunkGauge.Set(int64(len(a.chunkGroups)))
}

// chunkGroupSnap is one group's serialized reassembly state: present
// chunk slots listed explicitly so absence survives the codec.
type chunkGroupSnap struct {
	ID    [16]byte
	Total int
	Index []int
	Chunk [][]byte
}

type chunkSnapshot struct {
	Groups []chunkGroupSnap
}

// ChunkState serializes the in-flight reassembly state, in group
// insertion order — deterministic across replicas at the same delivery
// frontier, as checkpointed state must be. Dispatch goroutine only.
func (a *ABC) ChunkState() []byte {
	snap := chunkSnapshot{Groups: make([]chunkGroupSnap, 0, len(a.chunkOrder))}
	for _, k := range a.chunkOrder {
		g, ok := a.chunkGroups[k]
		if !ok {
			continue
		}
		gs := chunkGroupSnap{ID: k.id, Total: k.total}
		for i, c := range g.chunks {
			if c != nil {
				gs.Index = append(gs.Index, i)
				gs.Chunk = append(gs.Chunk, c)
			}
		}
		snap.Groups = append(snap.Groups, gs)
	}
	enc, err := wire.MarshalBody(snap)
	if err != nil {
		return nil
	}
	return enc
}

// RestoreChunkState replaces the reassembly state wholesale (checkpoint
// install). Dispatch goroutine only.
func (a *ABC) RestoreChunkState(enc []byte) error {
	groups := make(map[chunkKey]*chunkGroup)
	var order []chunkKey
	if len(enc) > 0 {
		var snap chunkSnapshot
		if err := wire.UnmarshalBody(enc, &snap); err != nil {
			return fmt.Errorf("abc: chunk state: %w", err)
		}
		for _, gs := range snap.Groups {
			if gs.Total < 2 || gs.Total > maxChunksPerPayload || len(gs.Index) != len(gs.Chunk) {
				return fmt.Errorf("abc: chunk state: malformed group")
			}
			g := &chunkGroup{chunks: make([][]byte, gs.Total)}
			for i, idx := range gs.Index {
				if idx < 0 || idx >= gs.Total || g.chunks[idx] != nil {
					return fmt.Errorf("abc: chunk state: bad slot")
				}
				g.chunks[idx] = gs.Chunk[i]
				g.have++
			}
			k := chunkKey{id: gs.ID, total: gs.Total}
			groups[k] = g
			order = append(order, k)
		}
	}
	a.chunkGroups = groups
	a.chunkOrder = order
	a.chunkGauge.Set(int64(len(a.chunkGroups)))
	return nil
}
