// Package modexp provides fixed-base windowed precomputation for
// modular exponentiation with arbitrary (odd) moduli. It backs the
// fast paths in internal/group (Schnorr-group elements mod P) and
// internal/thresig (RSA share verification mod N): any base that is
// fixed for the lifetime of a deployment — a generator, a dealt
// verification key — trades memory for dropping every squaring from
// the exponentiation ladder.
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

	once  sync.Once
	red   *reducer
	table [][]*big.Int // generic-path rows (even moduli, 32-bit words)
	mt    *mont
	mtab  [][][]uint64 // Montgomery-form rows: mtab[i][j] = base^(j·2^(i·w))·R
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
	}
}

func (t *Table) build() {
	w := t.window
	windows := t.maxBits / w
	if t.mt = newMont(t.mod); t.mt != nil {
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
		return
	}
	t.red = newReducer(t.mod)
	t.table = make([][]*big.Int, windows)
	cur := new(big.Int).Set(t.base)
	q, tmp := new(big.Int), new(big.Int)
	for i := 0; i < windows; i++ {
		row := make([]*big.Int, 1<<w)
		row[1] = new(big.Int).Set(cur)
		for j := 2; j < 1<<w; j++ {
			nxt := new(big.Int).Mul(row[j-1], cur)
			t.red.reduce(nxt, q, tmp)
			row[j] = nxt
		}
		t.table[i] = row
		for k := 0; k < w; k++ {
			cur.Mul(cur, cur)
			t.red.reduce(cur, q, tmp)
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

// reducer performs division-free Barrett reduction modulo a fixed
// modulus (HAC 14.42): with µ = ⌊2^{2n}/m⌋ precomputed once, reducing
// any x < 2^{2n} costs two multiplications, two shifts and at most two
// subtractions — where a Mod call pays a full division several times
// that price. math/big's Exp hides the same economics behind its
// internal Montgomery representation; Barrett recovers them for the
// externally-structured algorithms math/big does not offer (the
// windowed tables and the interleaved multi-exponentiation here).
// The struct holds only immutable constants; callers pass their own
// scratch, so one reducer may be shared by concurrent goroutines.
type reducer struct {
	m  *big.Int
	mu *big.Int
	n  uint
}

func newReducer(m *big.Int) *reducer {
	n := uint(m.BitLen())
	mu := new(big.Int).Lsh(bigOne, 2*n)
	return &reducer{m: m, mu: mu.Quo(mu, m), n: n}
}

// reduce sets x to x mod m using q and t as scratch; x must be in
// [0, 2^{2n}) and must not alias the scratch.
func (r *reducer) reduce(x, q, t *big.Int) {
	q.Rsh(x, r.n-1)
	q.Mul(q, r.mu)
	q.Rsh(q, r.n+1)
	x.Sub(x, t.Mul(q, r.m))
	for x.Cmp(r.m) >= 0 {
		x.Sub(x, r.m)
	}
}

var bigOne = big.NewInt(1)

// MultiExp returns Π bases[i]^exps[i] mod M with one shared squaring
// chain: the dominant cost of a product of k independent
// exponentiations is the k·|e| squarings, and interleaving the
// fixed-window evaluations lets all terms ride a single chain of
// max|e| squarings, with Barrett reduction keeping each chain step at
// multiplication cost. This is what makes random-linear-combination
// batch verification (internal/dleq, internal/thresig) cheaper than
// k separate checks: the per-term work collapses to table
// multiplications while the squarings are paid once.
//
// Exponents must be non-negative; nil or negative exponents (and
// nil bases) make the call fall back to sequential generic
// exponentiation. Operands are never mutated.
func MultiExp(mod *big.Int, bases, exps []*big.Int) *big.Int {
	if len(bases) != len(exps) {
		panic("modexp: MultiExp length mismatch")
	}
	acc := big.NewInt(1)
	for i := range bases {
		if bases[i] == nil || exps[i] == nil || exps[i].Sign() < 0 {
			// Degenerate input: do the whole product the slow,
			// always-correct way.
			tmp := new(big.Int)
			for j := range bases {
				acc.Mod(tmp.Mul(acc, new(big.Int).Exp(bases[j], exps[j], mod)), mod)
			}
			return acc
		}
	}
	if mt := newMont(mod); mt != nil {
		return multiExpMont(mt, bases, exps)
	}
	red := newReducer(mod)
	q, tmp := new(big.Int), new(big.Int)
	type term struct {
		w   int
		e   *big.Int
		tab []*big.Int // tab[d] = base^d mod M for d in [1, 2^w)
	}
	var terms []term
	maxBits := 0
	for i := range bases {
		e := exps[i]
		if e.Sign() == 0 {
			continue
		}
		w := multiExpWindow(e.BitLen())
		tab := make([]*big.Int, 1<<w)
		b := new(big.Int).Mod(bases[i], mod)
		tab[1] = b
		for d := 2; d < 1<<w; d++ {
			nxt := new(big.Int).Mul(tab[d-1], b)
			red.reduce(nxt, q, tmp)
			tab[d] = nxt
		}
		terms = append(terms, term{w: w, e: e, tab: tab})
		if bl := e.BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	// Scan the shared chain MSB-first. A term's window with low bit p
	// is multiplied in when the scan reaches p; the remaining p
	// squarings then raise that contribution to digit·2^p, so every
	// aligned window of every exponent lands exactly once.
	for p := maxBits - 1; p >= 0; p-- {
		if acc.BitLen() > 1 { // skip squaring the initial 1
			acc.Mul(acc, acc)
			red.reduce(acc, q, tmp)
		}
		for _, t := range terms {
			if p%t.w != 0 || p >= t.e.BitLen() {
				continue
			}
			var d uint
			for k := t.w - 1; k >= 0; k-- {
				d = d<<1 | t.e.Bit(p+k)
			}
			if d != 0 {
				acc.Mul(acc, t.tab[d])
				red.reduce(acc, q, tmp)
			}
		}
	}
	return acc
}

// multiExpMont is the interleaved chain over word-level Montgomery
// arithmetic: same windowing as the generic path, with every chain
// step a single CIOS multiplication and all per-term tables packed in
// one backing array.
func multiExpMont(mt *mont, bases, exps []*big.Int) *big.Int {
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
// the table fall back to the generic ladder.
func (t *Table) Exp(e *big.Int) *big.Int {
	if e == nil || e.Sign() < 0 || e.BitLen() > t.maxBits {
		return new(big.Int).Exp(t.base, e, t.mod)
	}
	t.once.Do(t.build)
	w := t.window
	if mt := t.mt; mt != nil {
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
	acc := big.NewInt(1)
	q, tmp := new(big.Int), new(big.Int)
	for i, row := range t.table {
		var d uint
		for k := w - 1; k >= 0; k-- {
			d = d<<1 | e.Bit(i*w+k)
		}
		if d != 0 {
			acc.Mul(acc, row[d])
			t.red.reduce(acc, q, tmp)
		}
	}
	return acc
}
