package group

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestFixedBaseMatchesGeneric cross-checks the windowed fixed-base path
// against plain square-and-multiply for many exponents, including the
// edges the windowing code must get right.
func TestFixedBaseMatchesGeneric(t *testing.T) {
	for _, g := range testGroups() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			base, _ := g.RandomElement(rand.Reader)
			fb := newFixedBase(g, base)
			exps := []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15),
				big.NewInt(16), big.NewInt(17),
				new(big.Int).Sub(g.Q, big.NewInt(1)),
				new(big.Int).Set(g.Q), // Q itself: x^Q must be 1 for elements
			}
			for i := 0; i < 24; i++ {
				s, _ := g.RandomScalar(rand.Reader)
				exps = append(exps, s)
			}
			for _, e := range exps {
				want := g.expGeneric(base, e)
				if got := fb.Exp(e); got.Cmp(want) != 0 {
					t.Fatalf("fixed-base %v^%v mismatch", base, e)
				}
			}
		})
	}
}

func TestBaseExpUsesTableAndMatches(t *testing.T) {
	g := zpTest256
	for i := 0; i < 32; i++ {
		s, _ := g.RandomScalar(rand.Reader)
		if g.BaseExp(s).Cmp(g.expGeneric(g.G, s)) != 0 {
			t.Fatalf("BaseExp(%v) diverges from generic path", s)
		}
	}
}

func TestPrecomputeRoutesExp(t *testing.T) {
	g := zpTest256
	base, _ := g.RandomElement(rand.Reader)
	g.Precompute(base)
	if g.fixed(base) == nil {
		t.Fatal("registered base has no table")
	}
	s, _ := g.RandomScalar(rand.Reader)
	if g.Exp(base, s).Cmp(g.expGeneric(base, s)) != 0 {
		t.Fatal("precomputed Exp diverges from generic path")
	}
	// A different pointer with the same value must not hit the table.
	clone := new(big.Int).Set(base)
	if g.fixed(clone) != nil {
		t.Fatal("precomp table matched by value, want pointer identity")
	}
}

// TestMulExpMatchesGeneric checks a^x·b^y against two independent
// exponentiations, over every combination of precomputed and
// ad-hoc bases (the fallback path and the dual-fixed-base path).
func TestMulExpMatchesGeneric(t *testing.T) {
	g := zpTest256
	pre, _ := g.RandomElement(rand.Reader)
	g.Precompute(pre)
	adhoc := g.HashToElement("mulexp-test", []byte("b"))
	bases := [][2]*big.Int{
		{adhoc, g.HashToElement("mulexp-test", []byte("c"))}, // fallback path
		{g.G, pre},     // both fixed
		{g.G, adhoc},   // mixed
		{pre, adhoc},   // mixed
		{adhoc, adhoc}, // equal bases
	}
	exps := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(3), new(big.Int).Set(g.Q)}
	for i := 0; i < 8; i++ {
		s, _ := g.RandomScalar(rand.Reader)
		exps = append(exps, s)
	}
	for bi, pair := range bases {
		for _, x := range exps {
			for _, y := range exps {
				want := g.Mul(g.expGeneric(pair[0], x), g.expGeneric(pair[1], y))
				if got := g.MulExp(pair[0], x, pair[1], y); got.Cmp(want) != 0 {
					t.Fatalf("bases[%d]: MulExp(…,%v,…,%v) mismatch", bi, x, y)
				}
			}
		}
	}
}

// TestMultiExpMatchesGeneric checks the batch product Π base^exp over
// mixes of fixed-base and ad-hoc terms against independent generic
// exponentiations.
func TestMultiExpMatchesGeneric(t *testing.T) {
	g := zpTest256
	pre, _ := g.RandomElement(rand.Reader)
	g.Precompute(pre)
	adhoc := []*big.Int{
		g.HashToElement("multiexp-test", []byte("a")),
		g.HashToElement("multiexp-test", []byte("b")),
		g.HashToElement("multiexp-test", []byte("c")),
	}
	for trial := 0; trial < 8; trial++ {
		var terms []bigTerm
		want := big.NewInt(1)
		add := func(base *big.Int, bits uint) {
			e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), bits))
			terms = append(terms, bigTerm{Base: base, Exp: e})
			want = g.Mul(want, g.expGeneric(base, e))
		}
		add(g.G, 256)
		add(pre, 256)
		for _, b := range adhoc {
			add(b, 128) // small batch randomizers
			add(b, 256)
		}
		terms = append(terms, bigTerm{Base: adhoc[0], Exp: big.NewInt(0)}) // zero exp skipped
		if got := g.MultiExp(terms); got.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExp diverges from generic product", trial)
		}
	}
	if g.MultiExp(nil).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("empty MultiExp should be the identity")
	}
}

// TestIsElementMatchesExpOracle cross-checks the Jacobi-symbol
// membership test against the original x^Q ≡ 1 exponentiation on
// residues, non-residues, and boundary values.
func TestIsElementMatchesExpOracle(t *testing.T) {
	for _, g := range testGroups() {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			cases := []*big.Int{
				big.NewInt(1), big.NewInt(2), big.NewInt(3),
				new(big.Int).Sub(g.P, big.NewInt(1)), // -1: non-residue for safe primes
				g.G,
			}
			for i := 0; i < 16; i++ {
				x, _ := g.RandomElement(rand.Reader)
				cases = append(cases, x)
				// A residue times a non-residue is a non-residue.
				cases = append(cases, g.Mul(x, new(big.Int).Sub(g.P, big.NewInt(1))))
			}
			for _, x := range cases {
				if got, want := g.IsElement(x), g.isElementExp(x); got != want {
					t.Fatalf("IsElement(%v) = %v, oracle says %v", x, got, want)
				}
			}
		})
	}
}

// TestNoArgumentMutation is the aliasing audit demanded by shared
// groups: the routers of one process share *big.Int public keys, so no Group
// method may mutate its arguments. Every arithmetic entry point is
// called and the operands compared against pristine copies.
func TestNoArgumentMutation(t *testing.T) {
	g := zpTest256
	x, _ := g.RandomElement(rand.Reader)
	y, _ := g.RandomElement(rand.Reader)
	a, _ := g.RandomScalar(rand.Reader)
	b, _ := g.RandomScalar(rand.Reader)
	args := []*big.Int{x, y, a, b}
	snap := make([]*big.Int, len(args))
	for i, v := range args {
		snap[i] = new(big.Int).Set(v)
	}

	fb := newFixedBase(g, x)
	g.Precompute(y)
	calls := map[string]func(){
		"Exp":           func() { g.Exp(x, a) },
		"ExpPrecomp":    func() { g.Exp(y, a) },
		"BaseExp":       func() { g.BaseExp(a) },
		"fixedBase.Exp": func() { fb.Exp(a) },
		"MulExp":        func() { g.MulExp(x, a, y, b) },
		"MulExpFixed":   func() { g.MulExp(g.G, a, y, b) },
		"Mul":           func() { g.Mul(x, y) },
		"Inv":           func() { g.Inv(x) },
		"Div":           func() { g.Div(x, y) },
		"IsElement":     func() { g.IsElement(x) },
		"AddScalar":     func() { g.AddScalar(a, b) },
		"SubScalar":     func() { g.SubScalar(a, b) },
		"MulScalar":     func() { g.MulScalar(a, b) },
		"InvScalar":     func() { g.InvScalar(a) },
		"EncodeElement": func() { g.EncodeElement(x) },
		"EncodeScalar":  func() { g.EncodeScalar(a) },
		"HashToScalar":  func() { g.HashToScalar("d", x.Bytes()) },
	}
	for name, call := range calls {
		call()
		for i, v := range args {
			if v.Cmp(snap[i]) != 0 {
				t.Fatalf("%s mutated argument %d: %v != %v", name, i, v, snap[i])
			}
		}
	}
}

// TestConcurrentSharedOperands exercises the sharing pattern of the
// routers of one process — many goroutines exponentiating with the same
// *big.Int bases and exponents — under the race detector.
func TestConcurrentSharedOperands(t *testing.T) {
	g := zpTest256
	base, _ := g.RandomElement(rand.Reader)
	g.Precompute(base)
	exp, _ := g.RandomScalar(rand.Reader)
	want := g.expGeneric(base, exp)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g.Exp(base, exp).Cmp(want) != 0 {
					panic("concurrent Exp diverged")
				}
				g.BaseExp(exp)
				g.MulExp(g.G, exp, base, exp)
				g.IsElement(base)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBaseExp compares plain square-and-multiply against the
// fixed-base windowed table for the generator (EXPERIMENTS.md
// "Verification pipeline" records the numbers).
func BenchmarkBaseExp(b *testing.B) {
	for _, g := range []*zpGroup{zpTest256, zpModp2048} {
		s, _ := g.RandomScalar(rand.Reader)
		b.Run(fmt.Sprintf("%s/generic", g.Name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.expGeneric(g.G, s)
			}
		})
		b.Run(fmt.Sprintf("%s/precomp", g.Name), func(b *testing.B) {
			g.BaseExp(s) // build the table outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.BaseExp(s)
			}
		})
	}
}

// BenchmarkMulExp compares two independent exponentiations against the
// simultaneous (Shamir) path and the dual-fixed-base path.
func BenchmarkMulExp(b *testing.B) {
	g := zpTest256
	h := g.HashToElement("bench-mulexp", []byte("h"))
	x, _ := g.RandomScalar(rand.Reader)
	y, _ := g.RandomScalar(rand.Reader)
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Mul(g.expGeneric(g.G, x), g.expGeneric(h, y))
		}
	})
	b.Run("fallback", func(b *testing.B) {
		h2 := g.HashToElement("bench-mulexp", []byte("h2")) // unregistered pair
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.MulExp(h2, x, h, y)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		g.Precompute(h)
		g.MulExp(g.G, x, h, y) // build tables outside the timed loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.MulExp(g.G, x, h, y)
		}
	})
}

// BenchmarkIsElement shows the Jacobi-symbol membership test against
// the x^Q exponentiation it replaced.
func BenchmarkIsElement(b *testing.B) {
	g := zpTest256
	x, _ := g.RandomElement(rand.Reader)
	b.Run("jacobi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.IsElement(x)
		}
	})
	b.Run("exp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.isElementExp(x)
		}
	})
}
