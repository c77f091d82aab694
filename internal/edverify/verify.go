// Package edverify checks Ed25519 signatures under fixed public keys from
// tables precomputed once per key, about twice as fast as
// crypto/ed25519.Verify, which decodes the key again and runs a
// variable-base ladder on every call.
//
// A Verifier accepts exactly the signatures crypto/ed25519.Verify
// accepts: s must be canonical (below ℓ, top three bits clear), h is
// SHA-512(R‖A‖M) mod ℓ over the key's bytes as given, the check
// [s]B = R + [h]A is cofactorless, a non-canonical encoding of A is
// accepted and one of R is rejected. Every input is public, so lookups
// and additions are variable time. Signing stays on crypto/ed25519.
//
// The field arithmetic (with its amd64 assembly) and the point formulas
// are copied from Go's crypto/internal/fips140/edwards25519; see LICENSE.
package edverify

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"
)

// errKeyLength is returned for a public key that is not 32 bytes long.
var errKeyLength = errors.New("edverify: public key is not 32 bytes")

// order is ℓ = 2^252 + 27742317777372353535851937790883648493, the order
// of the base point.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// table holds j·256^i·P for i = 0..31 and j = 1..8 (row i, entry j−1), so
// that the multiple of P by a scalar in signed radix 16 takes 64 additions
// and four doublings. Entries are projective: building a table inverts
// nothing. A table takes 32·8·160 bytes = 40 KiB.
type table [32][8]projCached

func (t *table) build(p *Point) {
	q := new(Point).Set(p)
	var acc Point
	var sum projP1xP1
	var dbl projP2
	for i := range t {
		t[i][0].FromP3(q)
		acc.Set(q)
		for j := 1; j < 8; j++ {
			acc.fromP1xP1(sum.Add(q, &t[i][j-1]))
			t[i][j].FromP3(&acc)
		}
		// acc is 8q, so five doublings give the next row's 256q.
		dbl.FromP3(&acc)
		for k := 0; k < 4; k++ {
			dbl.FromP1xP1(sum.Double(&dbl))
		}
		q.fromP1xP1(sum.Double(&dbl))
	}
}

// add sets v = v + d·t[i] for a signed digit d in [−8, 8].
func (t *table) add(v *Point, i int, d int8, tmp *projP1xP1) {
	switch {
	case d > 0:
		v.fromP1xP1(tmp.Add(v, &t[i][d-1]))
	case d < 0:
		v.fromP1xP1(tmp.Sub(v, &t[i][-d-1]))
	}
}

// baseTable is the table of the base point B, built on first use.
var baseTable = sync.OnceValue(func() *table {
	t := new(table)
	t.build(generator)
	return t
})

// builds counts the Verifiers built, for tests of when tables are built.
var builds atomic.Int64

// Builds returns the number of Verifiers built so far in this process.
func Builds() int64 { return builds.Load() }

// checkKey reports whether pub is a 32-byte encoding of a curve point, the
// keys that crypto/ed25519.Verify can accept signatures under. It builds
// no table.
func checkKey(pub []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return errKeyLength
	}
	_, err := new(Point).SetBytes(pub)
	return err
}

// CheckKeys checks that keys holds exactly n keys, each a 32-byte encoding
// of a curve point; an error names the first party whose key fails. It
// builds no table.
func CheckKeys(keys [][]byte, n int) error {
	if len(keys) != n {
		return fmt.Errorf("%d public keys for %d parties", len(keys), n)
	}
	for i, k := range keys {
		if err := checkKey(k); err != nil {
			return fmt.Errorf("party %d: %w", i, err)
		}
	}
	return nil
}

// Verifier checks signatures under one public key A. It holds the key's
// bytes and the table of −A; it is immutable and safe for concurrent use.
type Verifier struct {
	pub    [ed25519.PublicKeySize]byte
	minusA table
}

// NewVerifier decodes pub and builds its table.
func NewVerifier(pub []byte) (*Verifier, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, errKeyLength
	}
	a, err := new(Point).SetBytes(pub)
	if err != nil {
		return nil, err
	}
	v := new(Verifier)
	copy(v.pub[:], pub)
	v.minusA.build(a.Negate(a))
	builds.Add(1)
	return v, nil
}

// Verify reports whether sig is a valid signature on msg under the key,
// as crypto/ed25519.Verify would.
func (v *Verifier) Verify(msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 {
		return false
	}
	var s, h [32]byte
	if !scalarFromCanonical(&s, sig[32:]) {
		return false
	}
	hash := sha512.New()
	hash.Write(sig[:32])
	hash.Write(v.pub[:])
	hash.Write(msg)
	var digest [sha512.Size]byte
	scalarFromWide(&h, hash.Sum(digest[:0]))

	// R′ = [s]B + [h](−A), both from the signed radix-16 digits: the odd
	// digits, four doublings, then the even digits.
	sd, hd := signedRadix16(&s), signedRadix16(&h)
	base := baseTable()
	r := new(Point).Set(identity)
	var sum projP1xP1
	for i := 1; i < 64; i += 2 {
		base.add(r, i/2, sd[i], &sum)
		v.minusA.add(r, i/2, hd[i], &sum)
	}
	var dbl projP2
	dbl.FromP3(r)
	for k := 0; k < 3; k++ {
		dbl.FromP1xP1(sum.Double(&dbl))
	}
	r.fromP1xP1(sum.Double(&dbl))
	for i := 0; i < 64; i += 2 {
		base.add(r, i/2, sd[i], &sum)
		v.minusA.add(r, i/2, hd[i], &sum)
	}
	var enc [32]byte
	return bytes.Equal(sig[:32], r.bytes(&enc))
}

// scalarFromCanonical sets out to the little-endian 32-byte scalar in and
// reports whether it is below ℓ.
func scalarFromCanonical(out *[32]byte, in []byte) bool {
	var be [32]byte
	for i := range be {
		be[i] = in[31-i]
	}
	if new(big.Int).SetBytes(be[:]).Cmp(order) >= 0 {
		return false
	}
	copy(out[:], in)
	return true
}

// scalarFromWide sets out to the little-endian 64-byte integer in mod ℓ,
// little-endian.
func scalarFromWide(out *[32]byte, in []byte) {
	var be [64]byte
	for i := range be {
		be[i] = in[63-i]
	}
	k := new(big.Int).SetBytes(be[:])
	k.Mod(k, order).FillBytes(out[:])
	for i := 0; i < 16; i++ {
		out[i], out[31-i] = out[31-i], out[i]
	}
}

// Cache holds a Verifier for each key of a list, each built on the first
// check under its key and rebuilt if that key's bytes change. The zero
// Cache is ready for use; it is safe for concurrent use, and concurrent
// first checks under one key build its table once.
type Cache struct {
	vs atomic.Pointer[[]atomic.Pointer[Verifier]]
	mu sync.Mutex // held while building
}

// Verify reports whether sig is keys[i]'s signature on msg. A key that
// does not decode accepts nothing.
func (c *Cache) Verify(keys [][]byte, i int, msg, sig []byte) bool {
	v := c.verifier(keys, i)
	return v != nil && v.Verify(msg, sig)
}

// verifier returns keys[i]'s Verifier, or nil if the key does not decode.
func (c *Cache) verifier(keys [][]byte, i int) *Verifier {
	if v := c.built(keys, i); v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.built(keys, i); v != nil {
		return v
	}
	vs := c.vs.Load()
	if vs == nil || len(*vs) != len(keys) {
		fresh := make([]atomic.Pointer[Verifier], len(keys))
		vs = &fresh
		c.vs.Store(vs)
	}
	v, err := NewVerifier(keys[i])
	if err != nil {
		return nil
	}
	(*vs)[i].Store(v)
	return v
}

// built returns keys[i]'s Verifier if it is built for the key's bytes.
func (c *Cache) built(keys [][]byte, i int) *Verifier {
	vs := c.vs.Load()
	if vs == nil || len(*vs) != len(keys) {
		return nil
	}
	if v := (*vs)[i].Load(); v != nil && bytes.Equal(v.pub[:], keys[i]) {
		return v
	}
	return nil
}
