package modexp

import (
	"math/big"
	"math/bits"
)

// mont implements word-level Montgomery multiplication (CIOS) for a
// fixed odd modulus. big.Int's Exp uses the same representation
// internally but does not export it, and every externally-structured
// algorithm in this package — windowed fixed-base tables, the
// interleaved multi-exponentiation — otherwise pays for a full
// division per step, several times the cost of the multiplication
// itself. Operating on raw little-endian uint64 words keeps each chain
// step at ~2·n² word multiplications with no allocation.
//
// The struct is immutable after construction; callers supply scratch,
// so one mont may be shared by concurrent goroutines.
type mont struct {
	n      int      // modulus length in words
	m      []uint64 // modulus, little-endian
	modInt *big.Int // the modulus as a big.Int (not retained from caller)
	k0     uint64   // -m^{-1} mod 2^64
	rr     []uint64 // R² mod m, R = 2^{64n}: toMont multiplier
	one    []uint64 // R mod m: Montgomery form of 1
	unit   []uint64 // plain 1: fromMont multiplier
}

// newMont prepares Montgomery constants for mod, or returns nil when
// the representation does not apply (even, zero or negative modulus,
// or a platform without 64-bit words).
func newMont(mod *big.Int) *mont {
	if bits.UintSize != 64 || mod.Sign() <= 0 || mod.Bit(0) == 0 {
		return nil
	}
	n := (mod.BitLen() + 63) / 64
	mt := &mont{n: n, m: make([]uint64, n), modInt: new(big.Int).Set(mod)}
	for i, w := range mod.Bits() {
		mt.m[i] = uint64(w)
	}
	// k0 = -m[0]^{-1} mod 2^64 by Newton iteration (5 steps double
	// the valid bits from the seed's 3 to beyond 64).
	inv := mt.m[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - mt.m[0]*inv
	}
	mt.k0 = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*n))
	mt.one = mt.words(new(big.Int).Mod(r, mod))
	mt.rr = mt.words(new(big.Int).Mod(new(big.Int).Mul(r, r), mod))
	mt.unit = make([]uint64, n)
	mt.unit[0] = 1
	return mt
}

// words converts x (which must be in [0, m)) to fixed-width
// little-endian words.
func (mt *mont) words(x *big.Int) []uint64 {
	out := make([]uint64, mt.n)
	for i, w := range x.Bits() {
		out[i] = uint64(w)
	}
	return out
}

// toInt converts fixed-width words back to a big.Int.
func (mt *mont) toInt(x []uint64) *big.Int {
	words := make([]big.Word, len(x))
	for i, w := range x {
		words[i] = big.Word(w)
	}
	return new(big.Int).SetBits(words)
}

// mul sets z = x·y·R^{-1} mod m (CIOS). z may alias x or y; t is
// caller scratch of at least n+2 words.
func (mt *mont) mul(z, x, y, t []uint64) {
	if mt.n == 4 {
		mt.mul4(z, x, y)
		return
	}
	n := mt.n
	t = t[:n+2]
	for i := range t {
		t[i] = 0
	}
	for i := 0; i < n; i++ {
		// t += x[i] · y
		var c uint64
		xi := x[i]
		for j := 0; j < n; j++ {
			hi, lo := bits.Mul64(xi, y[j])
			var carry uint64
			lo, carry = bits.Add64(lo, t[j], 0)
			hi += carry
			lo, carry = bits.Add64(lo, c, 0)
			hi += carry
			t[j] = lo
			c = hi
		}
		var carry uint64
		t[n], carry = bits.Add64(t[n], c, 0)
		t[n+1] += carry

		// Add u·m with u chosen so the low word cancels; the one-word
		// right shift is fused into the loop by writing each result a
		// word lower (a memmove here would dominate at small n).
		u := t[0] * mt.k0
		hi, lo := bits.Mul64(u, mt.m[0])
		_, carry = bits.Add64(lo, t[0], 0)
		c = hi + carry
		for j := 1; j < n; j++ {
			hi, lo = bits.Mul64(u, mt.m[j])
			lo, carry = bits.Add64(lo, t[j], 0)
			hi += carry
			lo, carry = bits.Add64(lo, c, 0)
			hi += carry
			t[j-1] = lo
			c = hi
		}
		t[n-1], carry = bits.Add64(t[n], c, 0)
		t[n], _ = bits.Add64(t[n+1], 0, carry)
		t[n+1] = 0
	}
	// t[:n+1] < 2m: subtract m once if needed.
	if t[n] != 0 || !lessThan(t[:n], mt.m) {
		var borrow uint64
		for j := 0; j < n; j++ {
			t[j], borrow = bits.Sub64(t[j], mt.m[j], borrow)
		}
	}
	copy(z, t[:n])
}

// mul4 is mul unrolled for 4-word (≤256-bit) moduli — the width of
// the simulation groups, where loop and bounds-check overhead is a
// third of the generic routine's time. All state lives in registers;
// no scratch is needed and z may alias x or y.
func (mt *mont) mul4(z, x, y []uint64) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	m0, m1, m2, m3 := mt.m[0], mt.m[1], mt.m[2], mt.m[3]
	k0 := mt.k0
	var t0, t1, t2, t3, t4, t5 uint64
	for i := 0; i < 4; i++ {
		xi := x[i]
		var c, hi, lo, carry uint64
		// t += xi · y
		hi, lo = bits.Mul64(xi, y0)
		t0, carry = bits.Add64(t0, lo, 0)
		c = hi + carry
		hi, lo = bits.Mul64(xi, y1)
		lo, carry = bits.Add64(lo, c, 0)
		hi += carry
		t1, carry = bits.Add64(t1, lo, 0)
		c = hi + carry
		hi, lo = bits.Mul64(xi, y2)
		lo, carry = bits.Add64(lo, c, 0)
		hi += carry
		t2, carry = bits.Add64(t2, lo, 0)
		c = hi + carry
		hi, lo = bits.Mul64(xi, y3)
		lo, carry = bits.Add64(lo, c, 0)
		hi += carry
		t3, carry = bits.Add64(t3, lo, 0)
		c = hi + carry
		t4, carry = bits.Add64(t4, c, 0)
		t5 += carry

		// t = (t + u·m) >> 64 with the shift fused in
		u := t0 * k0
		hi, lo = bits.Mul64(u, m0)
		_, carry = bits.Add64(t0, lo, 0)
		c = hi + carry
		hi, lo = bits.Mul64(u, m1)
		lo, carry = bits.Add64(lo, c, 0)
		hi += carry
		t0, carry = bits.Add64(t1, lo, 0)
		c = hi + carry
		hi, lo = bits.Mul64(u, m2)
		lo, carry = bits.Add64(lo, c, 0)
		hi += carry
		t1, carry = bits.Add64(t2, lo, 0)
		c = hi + carry
		hi, lo = bits.Mul64(u, m3)
		lo, carry = bits.Add64(lo, c, 0)
		hi += carry
		t2, carry = bits.Add64(t3, lo, 0)
		c = hi + carry
		t3, carry = bits.Add64(t4, c, 0)
		t4 = t5 + carry
		t5 = 0
	}
	// t < 2m: subtract m and keep the difference unless it borrowed
	// without a spare top word.
	r0, b := bits.Sub64(t0, m0, 0)
	r1, b2 := bits.Sub64(t1, m1, b)
	r2, b3 := bits.Sub64(t2, m2, b2)
	r3, b4 := bits.Sub64(t3, m3, b3)
	if t4 != 0 || b4 == 0 {
		t0, t1, t2, t3 = r0, r1, r2, r3
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
}

// expWords converts a non-negative exponent to little-endian uint64
// words for cheap window extraction (per-bit Int.Bit calls add up to a
// measurable slice of an exponentiation at these operand sizes).
func expWords(e *big.Int) []uint64 {
	bw := e.Bits()
	out := make([]uint64, len(bw))
	for i, w := range bw {
		out[i] = uint64(w)
	}
	return out
}

// expDigit extracts the w-bit window of e whose low bit is at position
// p. Bits past the top of e read as zero.
func expDigit(e []uint64, p, w int) uint64 {
	i, off := p>>6, uint(p&63)
	if i >= len(e) {
		return 0
	}
	d := e[i] >> off
	if off+uint(w) > 64 && i+1 < len(e) {
		d |= e[i+1] << (64 - off)
	}
	return d & (1<<uint(w) - 1)
}

// lessThan reports x < y for equal-length little-endian words.
func lessThan(x, y []uint64) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// toMont converts x (in [0, m)) into Montgomery form.
func (mt *mont) toMont(z, x, t []uint64) {
	mt.mul(z, x, mt.rr, t)
}

// fromMont converts out of Montgomery form.
func (mt *mont) fromMont(z, x, t []uint64) {
	mt.mul(z, x, mt.unit, t)
}
