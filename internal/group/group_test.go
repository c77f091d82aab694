package group

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// testGroups returns the legacy Z_p* engines; the Scalar/Point Group
// interface has its own cross-backend suite in conformance_test.go.
func testGroups() []*zpGroup {
	return []*zpGroup{zpTest256, zpTest512}
}

func TestParamsAreSafePrimes(t *testing.T) {
	for _, g := range []*zpGroup{zpTest256, zpTest512, zpModp2048} {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			if !g.P.ProbablyPrime(32) {
				t.Fatal("P not prime")
			}
			if !g.Q.ProbablyPrime(32) {
				t.Fatal("Q not prime")
			}
			want := new(big.Int).Rsh(new(big.Int).Sub(g.P, big.NewInt(1)), 1)
			if g.Q.Cmp(want) != 0 {
				t.Fatal("Q != (P-1)/2")
			}
			if !g.IsElement(g.G) {
				t.Fatal("generator not in subgroup")
			}
		})
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{NameMODP2048, NameTest256, NameTest512, NameP256} {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("got %q, want %q", g.Name(), name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown group")
	}
}

func TestExpLaws(t *testing.T) {
	g := zpTest256
	a, _ := g.RandomScalar(rand.Reader)
	b, _ := g.RandomScalar(rand.Reader)
	// g^(a+b) == g^a * g^b
	lhs := g.BaseExp(g.AddScalar(a, b))
	rhs := g.Mul(g.BaseExp(a), g.BaseExp(b))
	if lhs.Cmp(rhs) != 0 {
		t.Fatal("additive exponent law broken")
	}
	// (g^a)^b == g^(ab)
	lhs = g.Exp(g.BaseExp(a), b)
	rhs = g.BaseExp(g.MulScalar(a, b))
	if lhs.Cmp(rhs) != 0 {
		t.Fatal("multiplicative exponent law broken")
	}
}

func TestInverses(t *testing.T) {
	g := zpTest256
	x, _ := g.RandomElement(rand.Reader)
	if g.Mul(x, g.Inv(x)).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("element inverse broken")
	}
	if g.Div(x, x).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Div broken")
	}
	s, _ := g.RandomScalar(rand.Reader)
	if s.Sign() == 0 {
		s = big.NewInt(1)
	}
	if g.MulScalar(s, g.InvScalar(s)).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("scalar inverse broken")
	}
}

func TestIsElementRejectsNonMembers(t *testing.T) {
	g := zpTest256
	cases := []*big.Int{
		nil,
		big.NewInt(0),
		new(big.Int).Set(g.P),
		new(big.Int).Add(g.P, big.NewInt(1)),
		new(big.Int).Neg(big.NewInt(3)),
	}
	for _, c := range cases {
		if g.IsElement(c) {
			t.Fatalf("IsElement accepted %v", c)
		}
	}
	// 2 generates the full group (order 2q), not the QR subgroup, for a
	// safe prime where 2 is a non-residue; accept either but g^q must be 1.
	x, _ := g.RandomElement(rand.Reader)
	if !g.IsElement(x) {
		t.Fatal("IsElement rejected subgroup member")
	}
}

func TestElementRoundTrip(t *testing.T) {
	g := zpTest256
	f := func(seed int64) bool {
		s := new(big.Int).Mod(big.NewInt(seed), g.Q)
		x := g.BaseExp(s)
		enc := g.EncodeElement(x)
		if len(enc) != g.ElementLen() {
			return false
		}
		y, err := g.DecodeElement(enc)
		if err != nil {
			return false
		}
		return x.Cmp(y) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalarRoundTrip(t *testing.T) {
	g := zpTest256
	f := func(seed int64) bool {
		s := new(big.Int).Mod(big.NewInt(seed), g.Q)
		if s.Sign() < 0 {
			s.Add(s, g.Q)
		}
		enc := g.EncodeScalar(s)
		got, err := g.DecodeScalar(enc)
		if err != nil {
			return false
		}
		return got.Cmp(s) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejects(t *testing.T) {
	g := zpTest256
	if _, err := g.DecodeElement([]byte{1, 2, 3}); err == nil {
		t.Fatal("short element accepted")
	}
	// An encoding of a non-residue must be rejected.
	nonMember := big.NewInt(2) // 2 is a quadratic non-residue mod p ≡ 3 (mod 8)
	if !g.IsElement(nonMember) {
		if _, err := g.DecodeElement(g.EncodeElement(nonMember)); err == nil {
			t.Fatal("non-member accepted")
		}
	}
	bad := g.EncodeScalar(big.NewInt(0))
	copy(bad, bytes.Repeat([]byte{0xff}, len(bad))) // >= Q
	if _, err := g.DecodeScalar(bad); err == nil {
		t.Fatal("oversized scalar accepted")
	}
}

func TestHashToElement(t *testing.T) {
	for _, g := range testGroups() {
		h1 := g.HashToElement("coin", []byte("round-1"))
		h2 := g.HashToElement("coin", []byte("round-1"))
		h3 := g.HashToElement("coin", []byte("round-2"))
		h4 := g.HashToElement("other", []byte("round-1"))
		if !g.IsElement(h1) {
			t.Fatal("hash output not in group")
		}
		if h1.Cmp(h2) != 0 {
			t.Fatal("hash not deterministic")
		}
		if h1.Cmp(h3) == 0 || h1.Cmp(h4) == 0 {
			t.Fatal("hash collisions across inputs/domains")
		}
	}
}

func TestHashToElementLengthFraming(t *testing.T) {
	g := zpTest256
	// ("ab","c") must differ from ("a","bc"): inputs are length-framed.
	h1 := g.HashToElement("d", []byte("ab"), []byte("c"))
	h2 := g.HashToElement("d", []byte("a"), []byte("bc"))
	if h1.Cmp(h2) == 0 {
		t.Fatal("hash framing is ambiguous")
	}
}

func TestHashToScalar(t *testing.T) {
	g := zpTest256
	s1 := g.HashToScalar("chal", []byte("x"))
	s2 := g.HashToScalar("chal", []byte("x"))
	if s1.Cmp(s2) != 0 {
		t.Fatal("not deterministic")
	}
	if s1.Cmp(g.Q) >= 0 || s1.Sign() < 0 {
		t.Fatal("scalar out of range")
	}
}

func TestRandomScalarRange(t *testing.T) {
	g := zpTest256
	for i := 0; i < 32; i++ {
		s, err := g.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if s.Sign() < 0 || s.Cmp(g.Q) >= 0 {
			t.Fatal("scalar out of range")
		}
	}
}

func BenchmarkBaseExp2048(b *testing.B) {
	g := zpModp2048
	s, _ := g.RandomScalar(rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BaseExp(s)
	}
}

func BenchmarkBaseExpTest256(b *testing.B) {
	g := zpTest256
	s, _ := g.RandomScalar(rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BaseExp(s)
	}
}
