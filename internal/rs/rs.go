// Package rs implements a systematic Reed–Solomon erasure code over
// GF(2^8) — the coding substrate of bandwidth-optimal dissemination
// (AVID-style coded reliable broadcast, after Cachin–Tessaro). A payload
// split into k data shards and extended with m parity shards can be
// reconstructed from any k of the n = k+m shards; a Merkle tree over the
// shards (package merkle) commits the sender to one consistent encoding,
// and a per-shard branch lets every party verify its fragment against the
// root without seeing the payload.
//
// The codec is self-contained (no dependencies beyond the standard
// library): GF(2^8) arithmetic uses log/exp tables over the AES field
// polynomial x^8+x^4+x^3+x^2+1 (0x11d), and the encoding matrix is the
// systematic transform of a Vandermonde matrix, so every k×k submatrix
// is invertible and reconstruction is a small Gaussian elimination.
package rs

import (
	"fmt"

	"sintra/internal/merkle"
)

// fieldPoly is the reducing polynomial of GF(2^8).
const fieldPoly = 0x11d

// NewTree commits to shards with package merkle's tree; the benchmark
// module's rs.merkle_64k_us row still reaches the tree through here.
func NewTree(shards [][]byte) *merkle.Tree { return merkle.NewTree(shards) }

// MaxShards bounds k+m: the field has 255 distinct non-zero evaluation
// points.
const MaxShards = 255

var (
	expTable [512]byte // generator powers, doubled to skip mod-255 reductions
	logTable [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= fieldPoly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
}

func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("rs: division by zero in GF(2^8)")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

func gfPow(a byte, e int) byte {
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*e)%255]
}

// Codec encodes k data shards into n = k+m total shards such that any k
// shards reconstruct the data. Codecs are immutable and safe for
// concurrent use.
type Codec struct {
	k, m int
	// matrix is the n×k systematic encoding matrix: the top k rows are
	// the identity, the bottom m rows generate parity. Every k-row
	// submatrix is invertible (it is a Vandermonde matrix times the
	// inverse of its own top square).
	matrix [][]byte
}

// New creates a codec with k data shards and m parity shards.
func New(k, m int) (*Codec, error) {
	if k < 1 || m < 0 || k+m > MaxShards {
		return nil, fmt.Errorf("rs: invalid shard counts k=%d m=%d", k, m)
	}
	n := k + m
	// Vandermonde rows over the distinct points 0..n-1 (0^0 = 1).
	vm := make([][]byte, n)
	for i := 0; i < n; i++ {
		vm[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			vm[i][j] = gfPow(byte(i), j)
		}
	}
	top := make([][]byte, k)
	for i := range top {
		top[i] = append([]byte(nil), vm[i]...)
	}
	inv, err := invertMatrix(top)
	if err != nil {
		return nil, fmt.Errorf("rs: vandermonde top square singular: %w", err)
	}
	c := &Codec{k: k, m: m, matrix: matMul(vm, inv)}
	return c, nil
}

// K returns the number of data shards.
func (c *Codec) K() int { return c.k }

// N returns the total number of shards.
func (c *Codec) N() int { return c.k + c.m }

// ShardLen returns the shard length used for a payload of the given size.
func (c *Codec) ShardLen(payloadLen int) int {
	return (payloadLen + c.k - 1) / c.k
}

// Split pads the payload and cuts it into k equal data shards. The
// original length must be carried out of band (see Join).
func (c *Codec) Split(payload []byte) [][]byte {
	shardLen := c.ShardLen(len(payload))
	if shardLen == 0 {
		shardLen = 1 // k shards of one zero byte for the empty payload
	}
	buf := make([]byte, c.k*shardLen)
	copy(buf, payload)
	shards := make([][]byte, c.k)
	for i := range shards {
		shards[i] = buf[i*shardLen : (i+1)*shardLen]
	}
	return shards
}

// Join reassembles the payload of the given original length from the k
// data shards.
func (c *Codec) Join(data [][]byte, payloadLen int) ([]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: join needs %d data shards, have %d", c.k, len(data))
	}
	var shardLen int
	for _, s := range data {
		if s == nil {
			return nil, fmt.Errorf("rs: join with missing data shard")
		}
		if shardLen == 0 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return nil, fmt.Errorf("rs: join with ragged shards")
		}
	}
	if payloadLen < 0 || payloadLen > c.k*shardLen {
		return nil, fmt.Errorf("rs: payload length %d outside shard capacity %d", payloadLen, c.k*shardLen)
	}
	out := make([]byte, 0, payloadLen)
	for _, s := range data {
		take := min(len(s), payloadLen-len(out))
		out = append(out, s[:take]...)
		if len(out) == payloadLen {
			break
		}
	}
	// The padding the sender added must be zero, or the shard set encodes
	// more than the declared payload (an inconsistent fragment header).
	rest := payloadLen
	for _, s := range data {
		for i := range s {
			if rest > 0 {
				rest--
				continue
			}
			if s[i] != 0 {
				return nil, fmt.Errorf("rs: nonzero padding beyond declared payload length")
			}
		}
	}
	return out[:payloadLen], nil
}

// Encode computes the m parity shards for k equal-length data shards and
// returns the full n-shard vector (data shards are aliased, not copied).
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("rs: encode needs %d data shards, have %d", c.k, len(data))
	}
	shardLen := -1
	for _, s := range data {
		if s == nil {
			return nil, fmt.Errorf("rs: encode with missing data shard")
		}
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return nil, fmt.Errorf("rs: encode with ragged shards")
		}
	}
	shards := make([][]byte, c.N())
	copy(shards, data)
	for p := 0; p < c.m; p++ {
		row := c.matrix[c.k+p]
		out := make([]byte, shardLen)
		for j, coef := range row {
			if coef == 0 {
				continue
			}
			src := data[j]
			mulAdd(out, src, coef)
		}
		shards[c.k+p] = out
	}
	return shards, nil
}

// Reconstruct recovers the k data shards from any k present shards of
// the n-shard vector (nil entries are missing) and returns them. The
// input slice is not modified.
func (c *Codec) Reconstruct(shards [][]byte) ([][]byte, error) {
	n := c.N()
	if len(shards) != n {
		return nil, fmt.Errorf("rs: reconstruct needs %d shard slots, have %d", n, len(shards))
	}
	present := make([]int, 0, c.k)
	shardLen := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if shardLen == -1 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return nil, fmt.Errorf("rs: reconstruct with ragged shards")
		}
		if len(present) < c.k {
			present = append(present, i)
		}
	}
	if len(present) < c.k {
		return nil, fmt.Errorf("rs: reconstruct needs %d shards, have %d", c.k, len(present))
	}
	// Fast path: all data shards present.
	allData := true
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			allData = false
			break
		}
	}
	if allData {
		data := make([][]byte, c.k)
		copy(data, shards[:c.k])
		return data, nil
	}
	sub := make([][]byte, c.k)
	for r, i := range present {
		sub[r] = append([]byte(nil), c.matrix[i]...)
	}
	dec, err := invertMatrix(sub)
	if err != nil {
		return nil, fmt.Errorf("rs: decode submatrix singular: %w", err)
	}
	data := make([][]byte, c.k)
	for r := 0; r < c.k; r++ {
		out := make([]byte, shardLen)
		for j, coef := range dec[r] {
			if coef == 0 {
				continue
			}
			mulAdd(out, shards[present[j]], coef)
		}
		data[r] = out
	}
	return data, nil
}

// mulAdd adds coef·src into dst (GF(2^8) multiply-accumulate). The inner
// loop indexes a per-coefficient 256-entry product table, turning the
// field multiply into a lookup — the codec's hot path.
func mulAdd(dst, src []byte, coef byte) {
	if coef == 1 {
		for i := range dst {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(logTable[coef])
	var table [256]byte
	for v := 1; v < 256; v++ {
		table[v] = expTable[logC+int(logTable[v])]
	}
	for i := range dst {
		dst[i] ^= table[src[i]]
	}
}

// matMul multiplies an n×k by a k×k matrix.
func matMul(a, b [][]byte) [][]byte {
	n, k := len(a), len(b)
	out := make([][]byte, n)
	for i := 0; i < n; i++ {
		out[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			var acc byte
			for l := 0; l < k; l++ {
				acc ^= gfMul(a[i][l], b[l][j])
			}
			out[i][j] = acc
		}
	}
	return out
}

// invertMatrix inverts a square matrix by Gauss–Jordan elimination. The
// input is consumed as scratch space.
func invertMatrix(m [][]byte) ([][]byte, error) {
	k := len(m)
	inv := make([][]byte, k)
	for i := range inv {
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("rs: singular matrix")
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if p := m[col][col]; p != 1 {
			for j := 0; j < k; j++ {
				m[col][j] = gfDiv(m[col][j], p)
				inv[col][j] = gfDiv(inv[col][j], p)
			}
		}
		for r := 0; r < k; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < k; j++ {
				m[r][j] ^= gfMul(f, m[col][j])
				inv[r][j] ^= gfMul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}
