package group

import (
	"math/big"

	"sintra/internal/modexp"
)

// fixedBase holds a windowed precomputation table for one fixed base
// (see internal/modexp). Exponentiations with a fixed base — the
// generator, a dealt verification key — then cost ~|Q|/w table
// multiplications and no squarings. The table is built lazily on
// first use and immutable afterwards, so a fixedBase is safe for
// concurrent use — the routers of one process share these tables.
type fixedBase struct {
	g   *zpGroup
	tab *modexp.Table
}

func newFixedBase(g *zpGroup, base *big.Int) *fixedBase {
	return &fixedBase{g: g, tab: modexp.NewTable(base, g.P, g.Q.BitLen())}
}

// Exp returns base^exp mod P using the precomputed table.
func (t *fixedBase) Exp(exp *big.Int) *big.Int { return t.tab.Exp(exp) }

// Precompute registers a windowed precomputation table for base, used
// transparently by Exp and MulExp whenever the *same *big.Int pointer*
// is passed as the base. Intended for dealt long-lived public values —
// verification keys, public keys, secondary generators — whose
// pointers live as long as the Params that hold them. The table
// itself is built lazily on first use; registration is cheap.
//
// The registry is keyed by pointer identity, not value: registering an
// ephemeral value leaks a table slot, so callers should only register
// keys with deployment lifetime. The registered value must never be
// mutated (see TestNoArgumentMutation).
func (g *zpGroup) Precompute(base *big.Int) {
	if base == nil || base.Sign() <= 0 || base == g.G {
		return // G has its own always-on table; see BaseExp.
	}
	if _, loaded := g.precomp.LoadOrStore(base, newFixedBase(g, base)); !loaded {
		g.nPrecomp.Add(1)
	}
}

// fixed returns the precomputation table registered for base, if any.
// The generator always has one (built on first use).
func (g *zpGroup) fixed(base *big.Int) *fixedBase {
	if base == g.G {
		g.baseOnce.Do(func() { g.baseTab = newFixedBase(g, g.G) })
		return g.baseTab
	}
	if g.nPrecomp.Load() == 0 {
		return nil
	}
	if t, ok := g.precomp.Load(base); ok {
		return t.(*fixedBase)
	}
	return nil
}

// MulExp returns a^x · b^y mod P, the simultaneous double
// exponentiation at the heart of the Chaum–Pedersen verification in
// internal/dleq. Bases with precomputed tables (the generator, or
// anything registered with Precompute) take the fixed-base path; the
// rest fall back to the generic ladder. A joint-window Shamir variant
// was measured and rejected: math/big's internal Montgomery ladder
// beats any externally-reduced shared squaring chain on amd64, so the
// simultaneous win comes from the tables eliminating squarings
// altogether, not from sharing them.
func (g *zpGroup) MulExp(a, x, b, y *big.Int) *big.Int {
	return g.Mul(g.Exp(a, x), g.Exp(b, y))
}

// bigTerm is one base^exp factor of a legacy big.Int MultiExp product.
type bigTerm struct {
	Base, Exp *big.Int
}

// MultiExp returns Π base^exp mod P over the given terms, the workhorse
// of interpolation in the exponent (internal/sharing).
// Terms whose base has a precomputation table — the generator, dealt
// verification keys — are evaluated through their tables (no squarings
// at all); the remaining terms share a single interleaved squaring
// chain (modexp.MultiExp), so k transient bases cost max|e| squarings
// once instead of k times. Exponents must be non-negative; callers
// reduce mod Q first.
func (g *zpGroup) MultiExp(terms []bigTerm) *big.Int {
	acc := big.NewInt(1)
	tmp := new(big.Int)
	var bases, exps []*big.Int
	for _, t := range terms {
		if t.Exp != nil && t.Exp.Sign() == 0 {
			continue
		}
		if tab := g.fixed(t.Base); tab != nil {
			acc.Mod(tmp.Mul(acc, tab.Exp(t.Exp)), g.P)
			continue
		}
		bases = append(bases, t.Base)
		exps = append(exps, t.Exp)
	}
	if len(bases) > 0 {
		acc.Mod(tmp.Mul(acc, modexp.MultiExp(g.P, bases, exps)), g.P)
	}
	return acc
}
