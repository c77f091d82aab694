package group

import (
	"fmt"
	"io"
	"math/big"
)

// modpGroup adapts the legacy Z_p* arithmetic engine (zpGroup) to the
// opaque Scalar/Point Group interface. It is the compatibility backend:
// canonical element encodings are byte-identical to the pre-interface
// wire format, so Fiat-Shamir transcripts and dealt key files keep
// their meaning across the redesign.
type modpGroup struct {
	id  GroupID
	zp  *zpGroup
	gen *Point
	one *Point
}

func newModpGroup(id GroupID, zp *zpGroup) *modpGroup {
	g := &modpGroup{id: id, zp: zp}
	// The generator Point wraps the same *big.Int the fixed-base table
	// registry keys on, so Exp through the interface still hits it.
	g.gen = &Point{id: id, v: zp.G, member: true}
	g.one = &Point{id: id, v: big.NewInt(1), member: true}
	return g
}

func (g *modpGroup) Name() string      { return g.zp.Name }
func (g *modpGroup) ID() GroupID       { return g.id }
func (g *modpGroup) ElementLen() int   { return g.zp.ElementLen() }
func (g *modpGroup) ScalarLen() int    { return g.zp.ScalarLen() }
func (g *modpGroup) Generator() *Point { return g.gen }
func (g *modpGroup) Identity() *Point  { return g.one }

// point wraps a known subgroup member produced by group arithmetic.
func (g *modpGroup) point(v *big.Int) *Point { return &Point{id: g.id, v: v, member: true} }

func (g *modpGroup) scalar(v *big.Int) *Scalar { return &Scalar{id: g.id, v: v} }

// sv unwraps a scalar operand, reducing foreign or unreduced values
// into this group's field so arithmetic never sees an out-of-range
// exponent (misuse across groups is a programmer error, not UB).
func (g *modpGroup) sv(s *Scalar) *big.Int {
	if s.id == g.id && s.v.Sign() >= 0 && s.v.Cmp(g.zp.Q) < 0 {
		return s.v
	}
	return new(big.Int).Mod(s.v, g.zp.Q)
}

func (g *modpGroup) RandomScalar(rnd io.Reader) (*Scalar, error) {
	v, err := g.zp.RandomScalar(rnd)
	if err != nil {
		return nil, err
	}
	return g.scalar(v), nil
}

func (g *modpGroup) RandomElement(rnd io.Reader) (*Point, error) {
	v, err := g.zp.RandomElement(rnd)
	if err != nil {
		return nil, err
	}
	return g.point(v), nil
}

func (g *modpGroup) NewScalar(v int64) *Scalar {
	return g.scalar(new(big.Int).Mod(big.NewInt(v), g.zp.Q))
}

func (g *modpGroup) ScalarFromBytes(b []byte) *Scalar {
	return g.scalar(new(big.Int).Mod(new(big.Int).SetBytes(b), g.zp.Q))
}

func (g *modpGroup) AddScalar(a, b *Scalar) *Scalar {
	return g.scalar(g.zp.AddScalar(g.sv(a), g.sv(b)))
}
func (g *modpGroup) SubScalar(a, b *Scalar) *Scalar {
	return g.scalar(g.zp.SubScalar(g.sv(a), g.sv(b)))
}
func (g *modpGroup) MulScalar(a, b *Scalar) *Scalar {
	return g.scalar(g.zp.MulScalar(g.sv(a), g.sv(b)))
}
func (g *modpGroup) InvScalar(a *Scalar) *Scalar { return g.scalar(g.zp.InvScalar(g.sv(a))) }

func (g *modpGroup) NegScalar(a *Scalar) *Scalar {
	v := g.sv(a)
	if v.Sign() == 0 {
		return g.scalar(new(big.Int))
	}
	return g.scalar(new(big.Int).Sub(g.zp.Q, v))
}

func (g *modpGroup) IsScalar(s *Scalar) bool {
	return s != nil && s.id == g.id && s.v != nil && s.v.Sign() >= 0 && s.v.Cmp(g.zp.Q) < 0
}

func (g *modpGroup) HashToScalar(domain string, data ...[]byte) *Scalar {
	return g.scalar(g.zp.HashToScalar(domain, data...))
}

func (g *modpGroup) EncodeScalar(s *Scalar) []byte { return g.zp.EncodeScalar(g.sv(s)) }

func (g *modpGroup) DecodeScalar(b []byte) (*Scalar, error) {
	v, err := g.zp.DecodeScalar(b)
	if err != nil {
		return nil, err
	}
	return g.scalar(v), nil
}

func (g *modpGroup) BaseExp(e *Scalar) *Point { return g.point(g.zp.BaseExp(g.sv(e))) }

func (g *modpGroup) Exp(base *Point, e *Scalar) *Point {
	return g.point(g.zp.Exp(base.v, g.sv(e)))
}

func (g *modpGroup) Mul(a, b *Point) *Point { return g.point(g.zp.Mul(a.v, b.v)) }
func (g *modpGroup) Inv(a *Point) *Point    { return g.point(g.zp.Inv(a.v)) }
func (g *modpGroup) Div(a, b *Point) *Point { return g.point(g.zp.Div(a.v, b.v)) }

func (g *modpGroup) MulExp(a *Point, x *Scalar, b *Point, y *Scalar) *Point {
	return g.point(g.zp.MulExp(a.v, g.sv(x), b.v, g.sv(y)))
}

func (g *modpGroup) MultiExp(terms []Term) *Point {
	bts := make([]bigTerm, len(terms))
	for i, t := range terms {
		bts[i] = bigTerm{Base: t.Base.v, Exp: g.sv(t.Exp)}
	}
	return g.point(g.zp.MultiExp(bts))
}

func (g *modpGroup) Precompute(base *Point) {
	if base == nil || base.v == nil {
		return
	}
	g.zp.Precompute(base.v)
}

func (g *modpGroup) IsElement(p *Point) bool {
	if p == nil || p.id != g.id || p.v == nil {
		return false
	}
	if p.member {
		return true
	}
	return g.zp.IsElement(p.v)
}

func (g *modpGroup) HashToPoint(domain string, data ...[]byte) *Point {
	return g.point(g.zp.HashToElement(domain, data...))
}

func (g *modpGroup) EncodeElement(p *Point) []byte { return g.zp.EncodeElement(p.v) }

func (g *modpGroup) DecodeElement(b []byte) (*Point, error) {
	v, err := g.zp.DecodeElement(b)
	if err != nil {
		return nil, err
	}
	return g.point(v), nil
}

// decodeElementLax range-checks a wire element without the Jacobi
// membership test, so a decode pays for no Jacobi symbol. IsElement
// performs the deferred test for callers that need full membership, as
// the coin and TDH2 share checks do for every value they accept.
func (g *modpGroup) decodeElementLax(b []byte) (*Point, error) {
	if len(b) != g.zp.byteLen {
		return nil, ErrBadLength
	}
	v := new(big.Int).SetBytes(b)
	if v.Sign() <= 0 || v.Cmp(g.zp.P) >= 0 {
		return nil, ErrNotInGroup
	}
	return &Point{id: g.id, v: v}, nil
}

var _ backend = (*modpGroup)(nil)

// String aids debugging in test failures.
func (g *modpGroup) String() string { return fmt.Sprintf("group(%s)", g.zp.Name) }
