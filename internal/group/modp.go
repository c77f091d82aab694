package group

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"sintra/internal/modexp"
)

// modpGroup is the Z_p* backend: the unique subgroup of quadratic
// residues of Z_p* for a safe prime p = 2q + 1, generated by 4 = 2². Points hold *big.Int values in [1, p-1], scalars *big.Int
// values in [0, q-1]. Canonical element encodings are byte-identical to
// the pre-interface wire format, so Fiat-Shamir transcripts and dealt
// key files keep their meaning.
type modpGroup struct {
	id      GroupID
	name    string
	p, q    *big.Int
	byteLen int // encoding width of elements
	gen     *Point
	one     *Point

	// Fixed-base tables (internal/modexp): base^e then costs ~|q|/w
	// table multiplications and no squarings. genTab serves the
	// generator; a base registered with Precompute holds its own
	// (Point.tab), which lives as long as the point. Tables are built on
	// first use and immutable afterwards: the routers of one process
	// share one group.
	genTab *modexp.Table
}

// newModpGroup assembles a parameter set from hex-encoded p and q.
func newModpGroup(id GroupID, name, pHex, qHex string) *modpGroup {
	p, ok := new(big.Int).SetString(pHex, 16)
	if !ok {
		panic("group: bad prime constant " + name)
	}
	q, ok := new(big.Int).SetString(qHex, 16)
	if !ok {
		panic("group: bad order constant " + name)
	}
	g := &modpGroup{id: id, name: name, p: p, q: q, byteLen: (p.BitLen() + 7) / 8}
	g.gen = g.point(big.NewInt(4))
	g.one = g.point(big.NewInt(1))
	g.genTab = modexp.NewTable(g.gen.v, p, q.BitLen())
	return g
}

func (g *modpGroup) Name() string      { return g.name }
func (g *modpGroup) ID() GroupID       { return g.id }
func (g *modpGroup) ElementLen() int   { return g.byteLen }
func (g *modpGroup) ScalarLen() int    { return (g.q.BitLen() + 7) / 8 }
func (g *modpGroup) Generator() *Point { return g.gen }
func (g *modpGroup) Identity() *Point  { return g.one }

// point wraps a known subgroup member produced by group arithmetic.
func (g *modpGroup) point(v *big.Int) *Point { return &Point{id: g.id, v: v, member: true} }

func (g *modpGroup) scalar(v *big.Int) *Scalar { return &Scalar{id: g.id, v: v} }

// sv unwraps a scalar operand, reducing foreign or unreduced values
// into this group's field so arithmetic never sees an out-of-range
// exponent (misuse across groups is a programmer error, not UB).
func (g *modpGroup) sv(s *Scalar) *big.Int {
	if s.id == g.id && s.v.Sign() >= 0 && s.v.Cmp(g.q) < 0 {
		return s.v
	}
	return new(big.Int).Mod(s.v, g.q)
}

func (g *modpGroup) RandomScalar(rnd io.Reader) (*Scalar, error) {
	v, err := rand.Int(rnd, g.q)
	if err != nil {
		return nil, fmt.Errorf("group: random scalar: %w", err)
	}
	return g.scalar(v), nil
}

func (g *modpGroup) RandomElement(rnd io.Reader) (*Point, error) {
	for {
		s, err := g.RandomScalar(rnd)
		if err != nil {
			return nil, err
		}
		if !s.IsZero() {
			return g.BaseExp(s), nil
		}
	}
}

func (g *modpGroup) NewScalar(v int64) *Scalar {
	return g.scalar(new(big.Int).Mod(big.NewInt(v), g.q))
}

func (g *modpGroup) AddScalar(a, b *Scalar) *Scalar {
	return g.scalar(new(big.Int).Mod(new(big.Int).Add(g.sv(a), g.sv(b)), g.q))
}

func (g *modpGroup) SubScalar(a, b *Scalar) *Scalar {
	s := new(big.Int).Sub(g.sv(a), g.sv(b))
	return g.scalar(s.Mod(s, g.q))
}

func (g *modpGroup) MulScalar(a, b *Scalar) *Scalar {
	return g.scalar(new(big.Int).Mod(new(big.Int).Mul(g.sv(a), g.sv(b)), g.q))
}

func (g *modpGroup) InvScalar(a *Scalar) *Scalar {
	return g.scalar(new(big.Int).ModInverse(g.sv(a), g.q))
}

func (g *modpGroup) NegScalar(a *Scalar) *Scalar {
	v := g.sv(a)
	if v.Sign() == 0 {
		return g.scalar(new(big.Int))
	}
	return g.scalar(new(big.Int).Sub(g.q, v))
}

func (g *modpGroup) IsScalar(s *Scalar) bool {
	return s != nil && s.id == g.id && s.v != nil && s.v.Sign() >= 0 && s.v.Cmp(g.q) < 0
}

// HashToScalar expands the input to the width of p plus 16 bytes, so
// the reduction mod q has negligible bias.
func (g *modpGroup) HashToScalar(domain string, data ...[]byte) *Scalar {
	x := hashWide(domain, data, g.byteLen+16)
	return g.scalar(x.Mod(x, g.q))
}

func (g *modpGroup) EncodeScalar(s *Scalar) []byte {
	return g.sv(s).FillBytes(make([]byte, g.ScalarLen()))
}

func (g *modpGroup) DecodeScalar(b []byte) (*Scalar, error) {
	if len(b) != g.ScalarLen() {
		return nil, ErrBadLength
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(g.q) >= 0 {
		return nil, errors.New("group: scalar out of range")
	}
	return g.scalar(v), nil
}

// table returns the fixed-base table for base: the generator's, or the
// one Precompute gave this very point.
func (g *modpGroup) table(base *Point) *modexp.Table {
	if base.v == g.gen.v {
		return g.genTab
	}
	return base.tab.Load()
}

// exp returns base^e mod p, through base's fixed-base table if it has one.
func (g *modpGroup) exp(base *Point, e *big.Int) *big.Int {
	if t := g.table(base); t != nil {
		return t.Exp(e)
	}
	return new(big.Int).Exp(base.v, e, g.p)
}

// mul returns a·b mod p.
func (g *modpGroup) mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), g.p)
}

func (g *modpGroup) BaseExp(e *Scalar) *Point { return g.point(g.genTab.Exp(g.sv(e))) }

func (g *modpGroup) Exp(base *Point, e *Scalar) *Point {
	return g.point(g.exp(base, g.sv(e)))
}

func (g *modpGroup) Mul(a, b *Point) *Point { return g.point(g.mul(a.v, b.v)) }
func (g *modpGroup) Inv(a *Point) *Point    { return g.point(new(big.Int).ModInverse(a.v, g.p)) }
func (g *modpGroup) Div(a, b *Point) *Point {
	return g.point(g.mul(a.v, new(big.Int).ModInverse(b.v, g.p)))
}

// MulExp computes a^x and b^y separately, each through its base's table
// where there is one. A joint-window Shamir variant was measured and
// rejected: math/big's internal Montgomery ladder beats any
// externally-reduced shared squaring chain on amd64, so the win comes
// from the tables dropping squarings altogether, not from sharing them.
func (g *modpGroup) MulExp(a *Point, x *Scalar, b *Point, y *Scalar) *Point {
	return g.point(g.mul(g.exp(a, g.sv(x)), g.exp(b, g.sv(y))))
}

// MultiExp evaluates terms whose base has a table through it (no
// squarings at all); the remaining terms share a single interleaved
// squaring chain (modexp.MultiExp), so k transient bases cost max|e|
// squarings once instead of k times.
func (g *modpGroup) MultiExp(terms []Term) *Point {
	acc := big.NewInt(1)
	tmp := new(big.Int)
	var bases, exps []*big.Int
	for _, t := range terms {
		e := g.sv(t.Exp)
		if e.Sign() == 0 {
			continue
		}
		if tab := g.table(t.Base); tab != nil {
			acc.Mod(tmp.Mul(acc, tab.Exp(e)), g.p)
			continue
		}
		bases = append(bases, t.Base.v)
		exps = append(exps, e)
	}
	if len(bases) > 0 {
		acc.Mod(tmp.Mul(acc, modexp.MultiExp(g.p, bases, exps)), g.p)
	}
	return g.point(acc)
}

// Precompute gives base a table, used whenever this very point is an
// exponentiation base; another point of the same value has none, so only
// points with deployment lifetime (dealt keys) should be registered.
// Registration is cheap; the table is built on first use and goes with
// the point.
func (g *modpGroup) Precompute(base *Point) {
	if base == nil || base.id != g.id || base.v == nil || base.v.Sign() <= 0 || base.v == g.gen.v {
		return
	}
	base.tab.CompareAndSwap(nil, modexp.NewTable(base.v, g.p, g.q.BitLen()))
}

// IsElement trusts the member flag of points that group arithmetic or a
// strict decode made. Otherwise, p being a safe prime, the order-q
// subgroup is exactly the quadratic residues, so membership is a Jacobi
// symbol: thousands of times cheaper than the x^q ≡ 1 exponentiation.
func (g *modpGroup) IsElement(p *Point) bool {
	if p == nil || p.id != g.id || p.v == nil {
		return false
	}
	return p.member || g.inRange(p.v) && big.Jacobi(p.v, g.p) == 1
}

// inRange reports whether x lies in [1, p-1].
func (g *modpGroup) inRange(x *big.Int) bool { return x.Sign() > 0 && x.Cmp(g.p) < 0 }

// HashToPoint stands in for the random oracle H' of the coin-tossing
// scheme: it expands the input with SHA-256 counters to cover the width
// of p, reduces mod p, and squares the result into the quadratic
// residues, re-deriving on the negligible chance of 0.
func (g *modpGroup) HashToPoint(domain string, data ...[]byte) *Point {
	for d := domain; ; d = domain + "#retry" {
		x := hashWide(d, data, g.byteLen+16)
		x.Mod(x, g.p)
		if x.Mul(x, x).Mod(x, g.p).Sign() != 0 {
			return g.point(x)
		}
	}
}

func (g *modpGroup) EncodeElement(p *Point) []byte {
	return p.v.FillBytes(make([]byte, g.byteLen))
}

func (g *modpGroup) DecodeElement(b []byte) (*Point, error) {
	p, err := g.decodeElementLax(b)
	if err != nil {
		return nil, err
	}
	if big.Jacobi(p.v, g.p) != 1 {
		return nil, ErrNotInGroup
	}
	p.member = true
	return p, nil
}

// decodeElementLax range-checks a wire element without the Jacobi
// membership test, so a decode pays for no Jacobi symbol. IsElement
// performs the deferred test for callers that need full membership, as
// the coin and TDH2 share checks do for every value they accept.
func (g *modpGroup) decodeElementLax(b []byte) (*Point, error) {
	if len(b) != g.byteLen {
		return nil, ErrBadLength
	}
	v := new(big.Int).SetBytes(b)
	if !g.inRange(v) {
		return nil, ErrNotInGroup
	}
	return &Point{id: g.id, v: v}, nil
}

var _ backend = (*modpGroup)(nil)

// String aids debugging in test failures.
func (g *modpGroup) String() string { return fmt.Sprintf("group(%s)", g.name) }
