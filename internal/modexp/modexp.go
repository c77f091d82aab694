// Package modexp provides fixed-base windowed precomputation and
// interleaved multi-exponentiation for modular exponentiation. It
// backs the fast paths of internal/group's Z_p* backend (Schnorr-group
// elements mod P): any base that is fixed for the lifetime of a
// deployment — a generator, a dealt verification key — trades memory
// for dropping every squaring from the exponentiation ladder.
//
// The representation is table[i][j] = base^(j·2^(i·w)) mod M for j in
// [1, 2^w), so base^e is one table multiply per w-bit window of e:
// ~|e|/w modular multiplications and no squarings, versus ~|e|
// squarings plus ~|e|/4 multiplications for the generic ladder.
// Measured on amd64, the crossover leaves math/big's internal
// Montgomery ladder behind once the window is wide enough that the
// step count drops below roughly a third of the generic operation
// count; the window is therefore chosen adaptively from the exponent
// width (8 bits for ≤320-bit exponents, 6 up to 768, else 5 — about
// 260 KiB, 350 KiB and 3.3 MiB of table per base respectively).
//
// All arithmetic runs on word-level Montgomery multiplication (mont.go),
// which needs an odd modulus and 64-bit words. Elsewhere (an even
// modulus, a 32-bit platform) Table.Exp and MultiExp fall back to plain
// math/big exponentiation, as they do for degenerate inputs.
//
// Tables are built lazily on first use and immutable afterwards;
// Table is safe for concurrent use and never mutates its operands,
// which the routers of one process, sharing one group, rely on.
package modexp

import (
	"math/big"
	"sync"
)

// Table holds the windowed precomputation for one (base, modulus)
// pair, covering exponents up to a fixed bit width.
type Table struct {
	mod     *big.Int
	base    *big.Int
	window  int
	maxBits int
	mt      *mont // nil: no Montgomery form for this modulus, Exp uses math/big

	once sync.Once
	mtab [][][]uint64 // Montgomery-form rows: mtab[i][j] = base^(j·2^(i·w))·R
}

// windowFor picks the window width for a given exponent bit width —
// wide enough to beat the generic ladder, narrow enough to keep the
// table build and memory cost sane.
func windowFor(expBits int) int {
	switch {
	case expBits <= 320:
		return 8
	case expBits <= 768:
		return 6
	default:
		return 5
	}
}

// NewTable prepares a fixed-base table for base mod mod, sized for
// exponents of up to expBits bits. The table itself is built on first
// Exp call. Both arguments are copied; the originals are never
// retained or mutated.
func NewTable(base, mod *big.Int, expBits int) *Table {
	w := windowFor(expBits)
	windows := (expBits + w - 1) / w
	return &Table{
		mod:     new(big.Int).Set(mod),
		base:    new(big.Int).Mod(base, mod),
		window:  w,
		maxBits: windows * w,
		mt:      newMont(mod),
	}
}

func (t *Table) build() {
	w := t.window
	windows := t.maxBits / w
	mt := t.mt
	scratch := make([]uint64, mt.n+2)
	cur := make([]uint64, mt.n)
	mt.toMont(cur, mt.words(t.base), scratch)
	t.mtab = make([][][]uint64, windows)
	// One backing array per row keeps entries cache-adjacent.
	for i := 0; i < windows; i++ {
		flat := make([]uint64, mt.n<<w)
		row := make([][]uint64, 1<<w)
		for j := 1; j < 1<<w; j++ {
			row[j] = flat[j*mt.n : (j+1)*mt.n]
			if j == 1 {
				copy(row[j], cur)
			} else {
				mt.mul(row[j], row[j-1], cur, scratch)
			}
		}
		t.mtab[i] = row
		for k := 0; k < w; k++ {
			mt.mul(cur, cur, cur, scratch)
		}
	}
}

// multiExpWindow picks the per-term window width for MultiExp. The
// tables here are transient — built per call, not amortized over a
// deployment — so the windows are much narrower than windowFor's:
// the build cost of 2^w−2 multiplications has to pay for itself
// within a single exponent.
func multiExpWindow(expBits int) int {
	switch {
	case expBits <= 64:
		return 3
	case expBits <= 320:
		return 4
	default:
		return 5
	}
}

// MultiExp returns Π bases[i]^exps[i] mod M with one shared squaring
// chain: the dominant cost of a product of k independent
// exponentiations is the k·|e| squarings, and interleaving the
// fixed-window evaluations lets all terms ride a single chain of
// max|e| squarings, each chain step a single CIOS multiplication.
// Terms with a zero exponent are skipped.
//
// Exponents must be non-negative; nil or negative exponents (and nil
// bases), like a modulus without a Montgomery form, make the call fall
// back to sequential math/big exponentiation. Operands are never
// mutated.
func MultiExp(mod *big.Int, bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("modexp: MultiExp length mismatch")
	}
	mt := newMont(mod)
	for i := range bases {
		if bases[i] == nil || exps[i] == nil || exps[i].Sign() < 0 {
			mt = nil
		}
	}
	if mt == nil {
		acc, tmp := big.NewInt(1), new(big.Int)
		for i := range bases {
			acc.Mod(tmp.Mul(acc, new(big.Int).Exp(bases[i], exps[i], mod)), mod)
		}
		return acc
	}
	type term struct {
		w     int
		ebits int
		ew    []uint64
		tab   [][]uint64 // Montgomery form: tab[d] = base^d · R
	}
	scratch := make([]uint64, mt.n+2)
	var terms []term
	maxBits := 0
	b := new(big.Int)
	for i := range bases {
		e := exps[i]
		if e.Sign() == 0 {
			continue
		}
		w := multiExpWindow(e.BitLen())
		flat := make([]uint64, mt.n<<w)
		tab := make([][]uint64, 1<<w)
		bw := mt.words(b.Mod(bases[i], mt.modInt))
		for d := 1; d < 1<<w; d++ {
			tab[d] = flat[d*mt.n : (d+1)*mt.n]
			if d == 1 {
				mt.toMont(tab[1], bw, scratch)
			} else {
				mt.mul(tab[d], tab[d-1], tab[1], scratch)
			}
		}
		terms = append(terms, term{w: w, ebits: e.BitLen(), ew: expWords(e), tab: tab})
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	// Scan the shared chain MSB-first. A term's window with low bit p
	// is multiplied in when the scan reaches p; the remaining p
	// squarings then raise that contribution to digit·2^p, so every
	// aligned window of every exponent lands exactly once.
	acc := make([]uint64, mt.n)
	copy(acc, mt.one)
	started := false
	for p := maxBits - 1; p >= 0; p-- {
		if started {
			mt.mul(acc, acc, acc, scratch)
		}
		for i := range terms {
			t := &terms[i]
			if p%t.w != 0 || p >= t.ebits {
				continue
			}
			if d := expDigit(t.ew, p, t.w); d != 0 {
				mt.mul(acc, acc, t.tab[d], scratch)
				started = true
			}
		}
	}
	mt.fromMont(acc, acc, scratch)
	return mt.toInt(acc)
}

// Exp returns base^e mod M. Exponents that are negative or wider than
// the table, and moduli without a Montgomery form, fall back to
// math/big.
func (t *Table) Exp(e *big.Int) *big.Int {
	mt := t.mt
	if mt == nil || e == nil || e.Sign() < 0 || e.BitLen() > t.maxBits {
		return new(big.Int).Exp(t.base, e, t.mod)
	}
	t.once.Do(t.build)
	w := t.window
	scratch := make([]uint64, mt.n+2)
	acc := make([]uint64, mt.n)
	copy(acc, mt.one)
	ew, ebits := expWords(e), e.BitLen()
	for i, row := range t.mtab {
		if i*w >= ebits {
			break
		}
		if d := expDigit(ew, i*w, w); d != 0 {
			mt.mul(acc, acc, row[d], scratch)
		}
	}
	mt.fromMont(acc, acc, scratch)
	return mt.toInt(acc)
}
