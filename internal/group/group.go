package group

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
)

// zpGroup is the raw *big.Int arithmetic engine of the Z_p* backend: the
// unique subgroup of quadratic residues of Z_p* for a safe prime
// p = 2q + 1, generated by G. The Group interface implementation
// (modpGroup) wraps it; points are *big.Int values in [1, p-1] that are
// quadratic residues, scalars are *big.Int values in [0, q-1].
type zpGroup struct {
	// Name identifies the parameter set (e.g. "modp2048", "test256").
	Name string
	// P is the safe prime modulus.
	P *big.Int
	// Q is the subgroup order, (P-1)/2.
	Q *big.Int
	// G is a generator of the order-Q subgroup.
	G *big.Int

	byteLen int // cached encoding width of elements

	// Fixed-base machinery (fixedbase.go). baseTab is the always-on
	// windowed table for G; precomp maps registered long-lived bases
	// (pointer-keyed) to their tables. nPrecomp lets Exp skip the map
	// lookup entirely when nothing was registered. All of it is
	// concurrency-safe: the routers of one process share one group.
	baseOnce sync.Once
	baseTab  *fixedBase
	precomp  sync.Map
	nPrecomp atomic.Int32
}

// newZpGroup assembles a zpGroup from hex-encoded p and q, with generator g.
func newZpGroup(name, pHex, qHex string, g int64) *zpGroup {
	p, ok := new(big.Int).SetString(pHex, 16)
	if !ok {
		panic("group: bad prime constant " + name)
	}
	q, ok := new(big.Int).SetString(qHex, 16)
	if !ok {
		panic("group: bad order constant " + name)
	}
	return &zpGroup{
		Name:    name,
		P:       p,
		Q:       q,
		G:       big.NewInt(g),
		byteLen: (p.BitLen() + 7) / 8,
	}
}

// ElementLen reports the fixed byte length of an encoded group element.
func (g *zpGroup) ElementLen() int { return g.byteLen }

// ScalarLen reports the fixed byte length of an encoded scalar.
func (g *zpGroup) ScalarLen() int { return (g.Q.BitLen() + 7) / 8 }

// Exp returns base^exp mod P. If base is the generator or a value
// registered with Precompute (pointer identity), the fixed-base
// windowed table is used instead of a generic exponentiation.
func (g *zpGroup) Exp(base, exp *big.Int) *big.Int {
	if t := g.fixed(base); t != nil {
		return t.Exp(exp)
	}
	return new(big.Int).Exp(base, exp, g.P)
}

// BaseExp returns G^exp mod P via the generator's windowed
// precomputation table (built once, on first use).
func (g *zpGroup) BaseExp(exp *big.Int) *big.Int {
	g.baseOnce.Do(func() { g.baseTab = newFixedBase(g, g.G) })
	return g.baseTab.Exp(exp)
}

// expGeneric is the plain square-and-multiply path, kept for the
// before/after micro-benchmarks and as a cross-check oracle in tests.
func (g *zpGroup) expGeneric(base, exp *big.Int) *big.Int {
	return new(big.Int).Exp(base, exp, g.P)
}

// Mul returns a*b mod P.
func (g *zpGroup) Mul(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), g.P)
}

// Inv returns the multiplicative inverse of a mod P.
func (g *zpGroup) Inv(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, g.P)
}

// Div returns a * b^-1 mod P.
func (g *zpGroup) Div(a, b *big.Int) *big.Int {
	return g.Mul(a, g.Inv(b))
}

// IsElement reports whether x lies in the order-Q subgroup. For a safe
// prime p = 2q+1 the order-q subgroup is exactly the quadratic
// residues, so membership is a Jacobi-symbol computation — thousands of
// times cheaper than the full x^q mod p exponentiation it replaces, and
// the reason certificate-share and DLEQ verification no longer pay four
// hidden exponentiations per message.
func (g *zpGroup) IsElement(x *big.Int) bool {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.P) >= 0 {
		return false
	}
	return big.Jacobi(x, g.P) == 1
}

// isElementExp is the original x^Q ≡ 1 membership test, kept as the
// oracle the Jacobi fast path is cross-checked against in tests.
func (g *zpGroup) isElementExp(x *big.Int) bool {
	if x == nil || x.Sign() <= 0 || x.Cmp(g.P) >= 0 {
		return false
	}
	return g.expGeneric(x, g.Q).Cmp(bigOne) == 0
}

// RandomScalar draws a uniform scalar in [0, Q) from r.
func (g *zpGroup) RandomScalar(r io.Reader) (*big.Int, error) {
	s, err := rand.Int(r, g.Q)
	if err != nil {
		return nil, fmt.Errorf("group: random scalar: %w", err)
	}
	return s, nil
}

// RandomElement draws a uniform non-identity subgroup element from r.
func (g *zpGroup) RandomElement(r io.Reader) (*big.Int, error) {
	for {
		s, err := g.RandomScalar(r)
		if err != nil {
			return nil, err
		}
		if s.Sign() == 0 {
			continue
		}
		return g.BaseExp(s), nil
	}
}

// AddScalar returns a+b mod Q.
func (g *zpGroup) AddScalar(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), g.Q)
}

// SubScalar returns a-b mod Q.
func (g *zpGroup) SubScalar(a, b *big.Int) *big.Int {
	s := new(big.Int).Sub(a, b)
	return s.Mod(s, g.Q)
}

// MulScalar returns a*b mod Q.
func (g *zpGroup) MulScalar(a, b *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), g.Q)
}

// InvScalar returns the inverse of a mod Q.
func (g *zpGroup) InvScalar(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, g.Q)
}

// HashToElement hashes arbitrary data onto the subgroup, standing in for
// the random oracle H' used by the coin-tossing scheme. It expands the
// input with SHA-256 counters to cover the width of P, reduces mod P, and
// squares the result so it lands in the quadratic-residue subgroup.
func (g *zpGroup) HashToElement(domain string, data ...[]byte) *big.Int {
	x := g.hashWide(domain, data)
	x.Mod(x, g.P)
	// Square into the QR subgroup; re-derive on the (negligible) chance of 0.
	x.Mul(x, x).Mod(x, g.P)
	for x.Sign() == 0 {
		x = g.hashWide(domain+"#retry", data)
		x.Mod(x, g.P)
		x.Mul(x, x).Mod(x, g.P)
	}
	return x
}

// HashToScalar hashes arbitrary data to a scalar mod Q, standing in for the
// random oracles used by the Fiat-Shamir proofs.
func (g *zpGroup) HashToScalar(domain string, data ...[]byte) *big.Int {
	x := g.hashWide(domain, data)
	return x.Mod(x, g.Q)
}

// hashWide expands SHA-256 over (domain, data...) to byteLen+16 bytes so
// the subsequent modular reduction has negligible bias.
func (g *zpGroup) hashWide(domain string, data [][]byte) *big.Int {
	return hashWide(domain, data, g.byteLen+16)
}

// hashWide expands SHA-256 over (domain, data...) to want bytes with a
// counter construction; inputs are length-framed so concatenation is
// unambiguous. Both backends' hash-to-scalar / hash-to-point build on it.
func hashWide(domain string, data [][]byte, want int) *big.Int {
	out := make([]byte, 0, want+sha256.Size)
	var ctr uint32
	for len(out) < want {
		h := sha256.New()
		var cb [4]byte
		binary.BigEndian.PutUint32(cb[:], ctr)
		h.Write(cb[:])
		h.Write([]byte(domain))
		for _, d := range data {
			var lb [8]byte
			binary.BigEndian.PutUint64(lb[:], uint64(len(d)))
			h.Write(lb[:])
			h.Write(d)
		}
		out = h.Sum(out)
		ctr++
	}
	return new(big.Int).SetBytes(out[:want])
}

// EncodeElement serializes a group element into fixed-width big-endian bytes.
func (g *zpGroup) EncodeElement(x *big.Int) []byte {
	return x.FillBytes(make([]byte, g.byteLen))
}

// DecodeElement parses and validates a fixed-width group element.
func (g *zpGroup) DecodeElement(b []byte) (*big.Int, error) {
	if len(b) != g.byteLen {
		return nil, ErrBadLength
	}
	x := new(big.Int).SetBytes(b)
	if !g.IsElement(x) {
		return nil, ErrNotInGroup
	}
	return x, nil
}

// EncodeScalar serializes a scalar into fixed-width big-endian bytes.
func (g *zpGroup) EncodeScalar(s *big.Int) []byte {
	return new(big.Int).Mod(s, g.Q).FillBytes(make([]byte, g.ScalarLen()))
}

// DecodeScalar parses a fixed-width scalar.
func (g *zpGroup) DecodeScalar(b []byte) (*big.Int, error) {
	if len(b) != g.ScalarLen() {
		return nil, ErrBadLength
	}
	s := new(big.Int).SetBytes(b)
	if s.Cmp(g.Q) >= 0 {
		return nil, errors.New("group: scalar out of range")
	}
	return s, nil
}

var bigOne = big.NewInt(1)
