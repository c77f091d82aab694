package group

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// Tests of the Z_p* backend's own machinery: fixed-base tables and
// their pointer-keyed registry, the Jacobi membership test and the
// parameter sets. The laws every backend obeys are in
// conformance_test.go.

// testGroups returns the test-sized Z_p* parameter sets.
func testGroups() []*modpGroup {
	return []*modpGroup{test256Group, test512Group}
}

// expGeneric is the oracle the tables are checked against: plain
// math/big square-and-multiply.
func expGeneric(g *modpGroup, base, e *big.Int) *big.Int {
	return new(big.Int).Exp(base, e, g.p)
}

// isElementExp is the x^q ≡ 1 membership test that the Jacobi symbol
// replaced, kept as its oracle.
func isElementExp(g *modpGroup, x *big.Int) bool {
	return g.inRange(x) && expGeneric(g, x, g.q).Cmp(big.NewInt(1)) == 0
}

// lax wraps v as a point of g that is not known to be a member, as a
// wire decode leaves it.
func lax(g *modpGroup, v *big.Int) *Point { return &Point{id: g.id, v: v} }

func randomPoint(t testing.TB, g *modpGroup) *Point {
	p, err := g.RandomElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomScalar(t testing.TB, g *modpGroup) *Scalar {
	s, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParamsAreSafePrimes(t *testing.T) {
	for _, g := range []*modpGroup{test256Group, test512Group, modp2048Group} {
		g := g
		t.Run(g.name, func(t *testing.T) {
			if !g.p.ProbablyPrime(32) {
				t.Fatal("P not prime")
			}
			if !g.q.ProbablyPrime(32) {
				t.Fatal("Q not prime")
			}
			want := new(big.Int).Rsh(new(big.Int).Sub(g.p, big.NewInt(1)), 1)
			if g.q.Cmp(want) != 0 {
				t.Fatal("Q != (P-1)/2")
			}
			if !isElementExp(g, g.gen.v) {
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

func TestIsElementRejectsNonMembers(t *testing.T) {
	g := test256Group
	cases := []*Point{
		nil,
		lax(g, nil),
		lax(g, big.NewInt(0)),
		lax(g, new(big.Int).Set(g.p)),
		lax(g, new(big.Int).Add(g.p, big.NewInt(1))),
		lax(g, big.NewInt(-3)),
		lax(g, new(big.Int).Sub(g.p, big.NewInt(1))), // -1: a non-residue
	}
	for _, c := range cases {
		if g.IsElement(c) {
			t.Fatalf("IsElement accepted %v", c)
		}
	}
	if x := randomPoint(t, g); !g.IsElement(lax(g, x.v)) {
		t.Fatal("IsElement rejected subgroup member")
	}
}

func TestElementRoundTrip(t *testing.T) {
	g := test256Group
	f := func(seed int64) bool {
		x := g.BaseExp(g.NewScalar(seed))
		enc := g.EncodeElement(x)
		if len(enc) != g.ElementLen() {
			return false
		}
		y, err := g.DecodeElement(enc)
		return err == nil && x.Equal(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScalarRoundTrip(t *testing.T) {
	g := test256Group
	f := func(seed int64) bool {
		s := g.NewScalar(seed)
		got, err := g.DecodeScalar(g.EncodeScalar(s))
		return err == nil && got.Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejects(t *testing.T) {
	g := test256Group
	if _, err := g.DecodeElement([]byte{1, 2, 3}); err == nil {
		t.Fatal("short element accepted")
	}
	// 2 is a quadratic non-residue mod p ≡ 3 (mod 8).
	if nonMember := big.NewInt(2); !isElementExp(g, nonMember) {
		if _, err := g.DecodeElement(g.EncodeElement(lax(g, nonMember))); err == nil {
			t.Fatal("non-member accepted")
		}
	}
	bad := bytes.Repeat([]byte{0xff}, g.ScalarLen()) // >= Q
	if _, err := g.DecodeScalar(bad); err == nil {
		t.Fatal("oversized scalar accepted")
	}
}

func TestHashToElement(t *testing.T) {
	for _, g := range testGroups() {
		h1 := g.HashToPoint("coin", []byte("round-1"))
		h2 := g.HashToPoint("coin", []byte("round-1"))
		h3 := g.HashToPoint("coin", []byte("round-2"))
		h4 := g.HashToPoint("other", []byte("round-1"))
		if !isElementExp(g, h1.v) {
			t.Fatal("hash output not in group")
		}
		if !h1.Equal(h2) {
			t.Fatal("hash not deterministic")
		}
		if h1.Equal(h3) || h1.Equal(h4) {
			t.Fatal("hash collisions across inputs/domains")
		}
	}
}

func TestHashToElementLengthFraming(t *testing.T) {
	g := test256Group
	// ("ab","c") must differ from ("a","bc"): inputs are length-framed.
	h1 := g.HashToPoint("d", []byte("ab"), []byte("c"))
	h2 := g.HashToPoint("d", []byte("a"), []byte("bc"))
	if h1.Equal(h2) {
		t.Fatal("hash framing is ambiguous")
	}
}

func TestHashToScalar(t *testing.T) {
	g := test256Group
	s1 := g.HashToScalar("chal", []byte("x"))
	if !s1.Equal(g.HashToScalar("chal", []byte("x"))) {
		t.Fatal("not deterministic")
	}
	if s1.v.Cmp(g.q) >= 0 || s1.v.Sign() < 0 {
		t.Fatal("scalar out of range")
	}
}

// TestFixedBaseMatchesGeneric cross-checks a registered base's windowed
// table against plain square-and-multiply for many exponents, including
// the edges the windowing code must get right.
func TestFixedBaseMatchesGeneric(t *testing.T) {
	for _, g := range testGroups() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			base := randomPoint(t, g)
			g.Precompute(base)
			tab := g.table(base)
			exps := []*big.Int{
				big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(15),
				big.NewInt(16), big.NewInt(17),
				new(big.Int).Sub(g.q, big.NewInt(1)),
				new(big.Int).Set(g.q), // Q itself: x^Q must be 1 for elements
			}
			for i := 0; i < 24; i++ {
				exps = append(exps, randomScalar(t, g).v)
			}
			for _, e := range exps {
				if got := tab.Exp(e); got.Cmp(expGeneric(g, base.v, e)) != 0 {
					t.Fatalf("fixed-base %v^%v mismatch", base, e)
				}
			}
		})
	}
}

func TestBaseExpUsesTableAndMatches(t *testing.T) {
	g := test256Group
	if g.table(g.gen) != g.genTab {
		t.Fatal("generator does not route to its table")
	}
	for i := 0; i < 32; i++ {
		s := randomScalar(t, g)
		if g.BaseExp(s).v.Cmp(expGeneric(g, g.gen.v, s.v)) != 0 {
			t.Fatalf("BaseExp(%v) diverges from generic path", s)
		}
	}
}

func TestPrecomputeRoutesExp(t *testing.T) {
	g := test256Group
	base := randomPoint(t, g)
	g.Precompute(base)
	if g.table(base) == nil {
		t.Fatal("registered base has no table")
	}
	s := randomScalar(t, g)
	if g.Exp(base, s).v.Cmp(expGeneric(g, base.v, s.v)) != 0 {
		t.Fatal("precomputed Exp diverges from generic path")
	}
	// Another point of the same value must not hit the table.
	if g.table(g.point(new(big.Int).Set(base.v))) != nil {
		t.Fatal("precomp table matched by value, want point identity")
	}
}

// TestMulExpMatchesGeneric checks a^x·b^y against two independent
// exponentiations, over every combination of precomputed and
// ad-hoc bases.
func TestMulExpMatchesGeneric(t *testing.T) {
	g := test256Group
	pre := randomPoint(t, g)
	g.Precompute(pre)
	adhoc := g.HashToPoint("mulexp-test", []byte("b"))
	bases := [][2]*Point{
		{adhoc, g.HashToPoint("mulexp-test", []byte("c"))}, // no tables
		{g.gen, pre},   // both fixed
		{g.gen, adhoc}, // mixed
		{pre, adhoc},   // mixed
		{adhoc, adhoc}, // equal bases
	}
	exps := []*Scalar{
		g.NewScalar(0), g.NewScalar(1), g.NewScalar(3),
		g.scalar(new(big.Int).Set(g.q)), // unreduced: sv must reduce it
	}
	for i := 0; i < 8; i++ {
		exps = append(exps, randomScalar(t, g))
	}
	for bi, pair := range bases {
		for _, x := range exps {
			for _, y := range exps {
				want := g.mul(expGeneric(g, pair[0].v, x.v), expGeneric(g, pair[1].v, y.v))
				if got := g.MulExp(pair[0], x, pair[1], y); got.v.Cmp(want) != 0 {
					t.Fatalf("bases[%d]: MulExp(…,%v,…,%v) mismatch", bi, x, y)
				}
			}
		}
	}
}

// TestMultiExpMatchesGeneric checks the product Π base^exp over mixes
// of fixed-base and ad-hoc terms against independent generic
// exponentiations.
func TestMultiExpMatchesGeneric(t *testing.T) {
	g := test256Group
	pre := randomPoint(t, g)
	g.Precompute(pre)
	adhoc := []*Point{
		g.HashToPoint("multiexp-test", []byte("a")),
		g.HashToPoint("multiexp-test", []byte("b")),
		g.HashToPoint("multiexp-test", []byte("c")),
	}
	for trial := 0; trial < 8; trial++ {
		var terms []Term
		want := big.NewInt(1)
		add := func(base *Point, bits uint) {
			e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), bits))
			terms = append(terms, Term{Base: base, Exp: g.scalar(e)})
			want = g.mul(want, expGeneric(g, base.v, e))
		}
		add(g.gen, 256)
		add(pre, 256)
		for _, b := range adhoc {
			add(b, 128) // short exponents
			add(b, 256)
		}
		terms = append(terms, Term{Base: adhoc[0], Exp: g.NewScalar(0)}) // zero exp skipped
		if got := g.MultiExp(terms); got.v.Cmp(want) != 0 {
			t.Fatalf("trial %d: MultiExp diverges from generic product", trial)
		}
	}
	if !g.MultiExp(nil).Equal(g.one) {
		t.Fatal("empty MultiExp should be the identity")
	}
}

// TestIsElementMatchesExpOracle cross-checks the Jacobi-symbol
// membership test against the x^Q ≡ 1 exponentiation on residues,
// non-residues, and boundary values.
func TestIsElementMatchesExpOracle(t *testing.T) {
	for _, g := range testGroups() {
		g := g
		t.Run(g.name, func(t *testing.T) {
			minusOne := new(big.Int).Sub(g.p, big.NewInt(1)) // a non-residue for safe primes
			cases := []*big.Int{big.NewInt(1), big.NewInt(2), big.NewInt(3), minusOne, g.gen.v}
			for i := 0; i < 16; i++ {
				x := randomPoint(t, g)
				// A residue times a non-residue is a non-residue.
				cases = append(cases, x.v, g.mul(x.v, minusOne))
			}
			for _, x := range cases {
				if got, want := g.IsElement(lax(g, x)), isElementExp(g, x); got != want {
					t.Fatalf("IsElement(%v) = %v, oracle says %v", x, got, want)
				}
			}
		})
	}
}

// TestNoArgumentMutation is the aliasing audit demanded by shared
// groups: the routers of one process share public keys, so no Group
// method may mutate its arguments. Every arithmetic entry point is
// called and the operands compared against pristine copies.
func TestNoArgumentMutation(t *testing.T) {
	g := test256Group
	x, y := randomPoint(t, g), randomPoint(t, g)
	a, b := randomScalar(t, g), randomScalar(t, g)
	args := []*big.Int{x.v, y.v, a.v, b.v}
	snap := make([]*big.Int, len(args))
	for i, v := range args {
		snap[i] = new(big.Int).Set(v)
	}

	g.Precompute(y)
	calls := map[string]func(){
		"Exp":           func() { g.Exp(x, a) },
		"ExpPrecomp":    func() { g.Exp(y, a) },
		"BaseExp":       func() { g.BaseExp(a) },
		"table.Exp":     func() { g.table(y).Exp(a.v) },
		"MulExp":        func() { g.MulExp(x, a, y, b) },
		"MulExpFixed":   func() { g.MulExp(g.gen, a, y, b) },
		"MultiExp":      func() { g.MultiExp([]Term{{Base: x, Exp: a}, {Base: y, Exp: b}}) },
		"Mul":           func() { g.Mul(x, y) },
		"Inv":           func() { g.Inv(x) },
		"Div":           func() { g.Div(x, y) },
		"IsElement":     func() { g.IsElement(lax(g, x.v)) },
		"AddScalar":     func() { g.AddScalar(a, b) },
		"SubScalar":     func() { g.SubScalar(a, b) },
		"MulScalar":     func() { g.MulScalar(a, b) },
		"InvScalar":     func() { g.InvScalar(a) },
		"NegScalar":     func() { g.NegScalar(a) },
		"EncodeElement": func() { g.EncodeElement(x) },
		"EncodeScalar":  func() { g.EncodeScalar(a) },
		"HashToScalar":  func() { g.HashToScalar("d", x.v.Bytes()) },
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
// routers of one process, many goroutines exponentiating with the same
// bases and exponents, on a table no one has built yet, under the race
// detector.
func TestConcurrentSharedOperands(t *testing.T) {
	g := test256Group
	base := randomPoint(t, g)
	g.Precompute(base)
	exp := randomScalar(t, g)
	want := expGeneric(g, base.v, exp.v)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g.Exp(base, exp).v.Cmp(want) != 0 {
					panic("concurrent Exp diverged")
				}
				g.BaseExp(exp)
				g.MulExp(g.gen, exp, base, exp)
				g.IsElement(lax(g, base.v))
			}
		}()
	}
	wg.Wait()
}

// BenchmarkBaseExp compares plain square-and-multiply against the
// generator's fixed-base windowed table (EXPERIMENTS.md "Verification
// pipeline" records the numbers).
func BenchmarkBaseExp(b *testing.B) {
	for _, g := range []*modpGroup{test256Group, modp2048Group} {
		s := randomScalar(b, g)
		b.Run(fmt.Sprintf("%s/generic", g.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				expGeneric(g, g.gen.v, s.v)
			}
		})
		b.Run(fmt.Sprintf("%s/precomp", g.name), func(b *testing.B) {
			g.BaseExp(s) // build the table outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.BaseExp(s)
			}
		})
	}
}

// BenchmarkMulExp compares two independent generic exponentiations
// against MulExp without tables and with both bases fixed, and on P-256
// the generator, which takes the stdlib's base-point table, against a
// decoded copy of it, which takes the variable-base ladder.
func BenchmarkMulExp(b *testing.B) {
	g := test256Group
	h := g.HashToPoint("bench-mulexp", []byte("h"))
	x, y := randomScalar(b, g), randomScalar(b, g)
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.mul(expGeneric(g, g.gen.v, x.v), expGeneric(g, h.v, y.v))
		}
	})
	b.Run("fallback", func(b *testing.B) {
		h2 := g.HashToPoint("bench-mulexp", []byte("h2")) // unregistered pair
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.MulExp(h2, x, h, y)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		g.Precompute(h)
		g.MulExp(g.gen, x, h, y) // build tables outside the timed loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.MulExp(g.gen, x, h, y)
		}
	})
	c := p256Group
	ch := c.HashToPoint("bench-mulexp", []byte("h"))
	cx := c.HashToScalar("bench-mulexp", []byte("x"))
	cy := c.HashToScalar("bench-mulexp", []byte("y"))
	copied, err := c.DecodeElement(c.EncodeElement(c.gen))
	if err != nil {
		b.Fatal(err)
	}
	for name, base := range map[string]*Point{"p256/generator": c.gen, "p256/ladder": copied} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.MulExp(base, cx, ch, cy)
			}
		})
	}
}

// BenchmarkIsElement shows the Jacobi-symbol membership test of a wire
// point against the x^Q exponentiation it replaced.
func BenchmarkIsElement(b *testing.B) {
	g := test256Group
	x := lax(g, randomPoint(b, g).v)
	b.Run("jacobi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.IsElement(x)
		}
	})
	b.Run("exp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			isElementExp(g, x.v)
		}
	})
}
