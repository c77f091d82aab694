package group

import (
	"crypto/elliptic"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

// p256Backend is the NIST P-256 elliptic-curve backend. Scalar
// multiplication runs on the stdlib crypto/elliptic P-256 code, which
// dispatches to the constant-time nistec implementation; the curve has
// prime order and cofactor 1, so every on-curve point is a member of
// the prime-order group and decoding doubles as the membership test.
//
// Compared with the 2048-bit Z_p* group this makes an exponentiation an
// order of magnitude cheaper and shrinks a wire element from 256 to 33
// bytes (compressed SEC1), which is why it is the default recommendation
// for new deployments; Z_p* remains as the paper-faithful compatibility
// mode.
//
// Points are affine (x, y) pairs; (0, 0) denotes the point at infinity,
// following crypto/elliptic's convention. The identity has no canonical
// compressed encoding and is rejected on the wire — the protocols never
// legitimately transmit it.
type p256Backend struct {
	curve elliptic.Curve
	order *big.Int // group order n
	p     *big.Int // field prime
	gen   *Point
	ident *Point
}

// p256Group is the backend singleton the registry (api.go) hands out.
var p256Group = newP256Group()

func newP256Group() *p256Backend {
	c := elliptic.P256()
	par := c.Params()
	g := &p256Backend{curve: c, order: par.N, p: par.P}
	g.gen = &Point{id: IDP256, x: par.Gx, y: par.Gy, member: true}
	g.ident = &Point{id: IDP256, x: new(big.Int), y: new(big.Int), member: true}
	return g
}

func (g *p256Backend) Name() string      { return NameP256 }
func (g *p256Backend) ID() GroupID       { return IDP256 }
func (g *p256Backend) ElementLen() int   { return 33 } // compressed SEC1
func (g *p256Backend) ScalarLen() int    { return 32 }
func (g *p256Backend) Generator() *Point { return g.gen }
func (g *p256Backend) Identity() *Point  { return g.ident }

func (g *p256Backend) point(x, y *big.Int) *Point {
	return &Point{id: IDP256, x: x, y: y, member: true}
}

func (g *p256Backend) scalar(v *big.Int) *Scalar { return &Scalar{id: IDP256, v: v} }

func (g *p256Backend) sv(s *Scalar) *big.Int {
	if s.id == IDP256 && s.v.Sign() >= 0 && s.v.Cmp(g.order) < 0 {
		return s.v
	}
	return new(big.Int).Mod(s.v, g.order)
}

// scalarBytes is the fixed-width encoding crypto/elliptic consumes.
func (g *p256Backend) scalarBytes(s *Scalar) []byte {
	return g.sv(s).FillBytes(make([]byte, 32))
}

func (p *Point) isInfinity() bool {
	return p.x != nil && p.x.Sign() == 0 && p.y.Sign() == 0
}

func (g *p256Backend) RandomScalar(rnd io.Reader) (*Scalar, error) {
	v, err := rand.Int(rnd, g.order)
	if err != nil {
		return nil, fmt.Errorf("group: random scalar: %w", err)
	}
	return g.scalar(v), nil
}

func (g *p256Backend) RandomElement(rnd io.Reader) (*Point, error) {
	for {
		s, err := g.RandomScalar(rnd)
		if err != nil {
			return nil, err
		}
		if s.v.Sign() == 0 {
			continue
		}
		return g.BaseExp(s), nil
	}
}

func (g *p256Backend) NewScalar(v int64) *Scalar {
	return g.scalar(new(big.Int).Mod(big.NewInt(v), g.order))
}

func (g *p256Backend) AddScalar(a, b *Scalar) *Scalar {
	v := new(big.Int).Add(g.sv(a), g.sv(b))
	return g.scalar(v.Mod(v, g.order))
}

func (g *p256Backend) SubScalar(a, b *Scalar) *Scalar {
	v := new(big.Int).Sub(g.sv(a), g.sv(b))
	return g.scalar(v.Mod(v, g.order))
}

func (g *p256Backend) MulScalar(a, b *Scalar) *Scalar {
	v := new(big.Int).Mul(g.sv(a), g.sv(b))
	return g.scalar(v.Mod(v, g.order))
}

func (g *p256Backend) InvScalar(a *Scalar) *Scalar {
	return g.scalar(new(big.Int).ModInverse(g.sv(a), g.order))
}

func (g *p256Backend) NegScalar(a *Scalar) *Scalar {
	v := g.sv(a)
	if v.Sign() == 0 {
		return g.scalar(new(big.Int))
	}
	return g.scalar(new(big.Int).Sub(g.order, v))
}

func (g *p256Backend) IsScalar(s *Scalar) bool {
	return s != nil && s.id == IDP256 && s.v != nil && s.v.Sign() >= 0 && s.v.Cmp(g.order) < 0
}

func (g *p256Backend) HashToScalar(domain string, data ...[]byte) *Scalar {
	// 48 bytes of hash output leave the reduction mod the 256-bit order
	// with negligible bias.
	x := hashWide(domain, data, 48)
	return g.scalar(x.Mod(x, g.order))
}

func (g *p256Backend) EncodeScalar(s *Scalar) []byte {
	return g.sv(s).FillBytes(make([]byte, 32))
}

func (g *p256Backend) DecodeScalar(b []byte) (*Scalar, error) {
	if len(b) != 32 {
		return nil, ErrBadLength
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(g.order) >= 0 {
		return nil, fmt.Errorf("group: scalar out of range")
	}
	return g.scalar(v), nil
}

func (g *p256Backend) BaseExp(e *Scalar) *Point {
	x, y := g.curve.ScalarBaseMult(g.scalarBytes(e))
	return g.point(x, y)
}

// Exp sends the generator itself (this very point, as Generator returns
// it) to BaseExp's stdlib table, two to four times cheaper than the
// ladder; any other point, a decoded copy of the generator included,
// takes the ladder.
func (g *p256Backend) Exp(base *Point, e *Scalar) *Point {
	if base.x == g.gen.x && base.y == g.gen.y {
		return g.BaseExp(e)
	}
	if base.isInfinity() {
		return g.ident
	}
	x, y := g.curve.ScalarMult(base.x, base.y, g.scalarBytes(e))
	return g.point(x, y)
}

func (g *p256Backend) Mul(a, b *Point) *Point {
	// crypto/elliptic treats (0, 0) as the point at infinity in both
	// operands and the result.
	x, y := g.curve.Add(a.x, a.y, b.x, b.y)
	return g.point(x, y)
}

func (g *p256Backend) Inv(a *Point) *Point {
	if a.isInfinity() {
		return g.ident
	}
	// -(x, y) = (x, p-y); P-256 has odd order, so y is never 0 on-curve.
	return g.point(a.x, new(big.Int).Sub(g.p, a.y))
}

func (g *p256Backend) Div(a, b *Point) *Point { return g.Mul(a, g.Inv(b)) }

func (g *p256Backend) MulExp(a *Point, x *Scalar, b *Point, y *Scalar) *Point {
	return g.Mul(g.Exp(a, x), g.Exp(b, y))
}

func (g *p256Backend) MultiExp(terms []Term) *Point {
	acc := g.ident
	for _, t := range terms {
		if t.Exp != nil && t.Exp.IsZero() {
			continue
		}
		acc = g.Mul(acc, g.Exp(t.Base, t.Exp))
	}
	return acc
}

// Precompute is a no-op: the generator already has the stdlib's
// base-point table (Exp sends it there), and crypto/elliptic offers no
// fixed-base tables for other points.
func (g *p256Backend) Precompute(base *Point) {}

func (g *p256Backend) IsElement(p *Point) bool {
	// Every Point this backend constructs or decodes is on the curve,
	// and cofactor 1 makes on-curve equivalent to membership.
	return p != nil && p.id == IDP256 && p.x != nil && p.y != nil && p.member
}

// HashToPoint hashes onto the curve by try-and-increment: derive an x
// candidate (and a y-parity bit) from the counter-extended hash, try to
// decompress, and bump the counter until a curve point appears (two
// attempts expected). Not constant time — the protocols only hash
// public data (coin names, group labels), standing in for the random
// oracle H' exactly as the Z_p* square-into-QR construction does.
func (g *p256Backend) HashToPoint(domain string, data ...[]byte) *Point {
	for ctr := uint32(0); ; ctr++ {
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		framed := append([][]byte{cb[:]}, data...)
		// 48 wide bytes reduce mod p with negligible bias; one more
		// derived byte picks the y parity.
		wide := hashWide(domain+"#x", framed, 49)
		parity := byte(wide.Bit(0))
		x := wide.Rsh(wide, 8)
		x.Mod(x, g.p)
		buf := make([]byte, 33)
		buf[0] = 2 | parity
		x.FillBytes(buf[1:])
		px, py := elliptic.UnmarshalCompressed(g.curve, buf)
		if px != nil {
			return g.point(px, py)
		}
	}
}

func (g *p256Backend) EncodeElement(p *Point) []byte {
	if p.isInfinity() {
		// The identity has no compressed encoding; emit an all-zero
		// string, which DecodeElement rejects — the protocols never
		// transmit the identity.
		return make([]byte, 33)
	}
	return elliptic.MarshalCompressed(g.curve, p.x, p.y)
}

func (g *p256Backend) DecodeElement(b []byte) (*Point, error) {
	if len(b) != 33 {
		return nil, ErrBadLength
	}
	x, y := elliptic.UnmarshalCompressed(g.curve, b)
	if x == nil {
		return nil, ErrNotInGroup
	}
	return g.point(x, y), nil
}

// decodeElementLax is identical to DecodeElement: decompression already
// proves on-curve, and cofactor 1 makes that full membership — there is
// no cheaper lax variant to offer.
func (g *p256Backend) decodeElementLax(b []byte) (*Point, error) { return g.DecodeElement(b) }

var _ backend = (*p256Backend)(nil)
