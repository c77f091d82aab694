package group

import (
	"bytes"
	"crypto/rand"
	"errors"
	"sync"
	"testing"
)

// conformanceBackends lists every registered parameter set. The
// production MODP group runs the same harness as the test-sized ones:
// the suite performs a bounded number of exponentiations, so even
// 2048-bit arithmetic stays in test budget.
func conformanceBackends() []Group {
	return []Group{MODP2048(), Test512(), Test256(), P256()}
}

// TestGroupConformance runs the shared cross-backend suite against every
// backend. Any new parameter set must pass groupConformance unchanged —
// the protocols above (dleq, coin, threnc, sharing) assume exactly these
// laws and nothing backend-specific.
func TestGroupConformance(t *testing.T) {
	for _, g := range conformanceBackends() {
		t.Run(g.Name(), func(t *testing.T) { groupConformance(t, g) })
	}
}

// TestGeneratorExpMatchesBaseExp: every backend sends the generator, as
// Generator returns it, to a fixed-base table, and a decoded copy of the
// generator, another object of the same value, to the generic path. Both
// give BaseExp's point for e = 0, 1, q−1 and a random e, as a base of Exp,
// of MulExp in either place and of MultiExp. The generator's inverse
// shares an x coordinate with it on P-256 and must not take the table.
func TestGeneratorExpMatchesBaseExp(t *testing.T) {
	for _, g := range conformanceBackends() {
		t.Run(g.Name(), func(t *testing.T) {
			gen := g.Generator()
			copied, err := g.DecodeElement(g.EncodeElement(gen))
			if err != nil {
				t.Fatal(err)
			}
			if copied == gen || !copied.Equal(gen) {
				t.Fatal("the decoded generator is not a distinct object of the same value")
			}
			random, err := g.RandomScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			p, err := g.RandomElement(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			y := g.HashToScalar("generator-test", []byte("y"))
			py := g.Exp(p, y)
			for _, e := range []*Scalar{g.NewScalar(0), g.NewScalar(1), g.NewScalar(-1), random} {
				want := g.BaseExp(e)
				for name, base := range map[string]*Point{"generator": gen, "decoded copy": copied} {
					if !g.Exp(base, e).Equal(want) {
						t.Errorf("Exp(%s, %v) != BaseExp", name, e)
					}
					if !g.MulExp(base, e, p, y).Equal(g.Mul(want, py)) {
						t.Errorf("MulExp(%s, %v, p, y) != BaseExp · p^y", name, e)
					}
					if !g.MulExp(p, y, base, e).Equal(g.Mul(py, want)) {
						t.Errorf("MulExp(p, y, %s, %v) != p^y · BaseExp", name, e)
					}
					if !g.MultiExp([]Term{{Base: p, Exp: y}, {Base: base, Exp: e}}).Equal(g.Mul(py, want)) {
						t.Errorf("MultiExp with %s^%v != p^y · BaseExp", name, e)
					}
				}
				if !g.Exp(g.Inv(gen), e).Equal(g.Inv(want)) {
					t.Errorf("Exp(Inv(generator), %v) != Inv(BaseExp)", e)
				}
			}
		})
	}
}

// groupConformance asserts the Group contract: group and scalar-field
// laws, canonical encode/decode round-trips, hash-to-point/scalar
// determinism and range, non-member and foreign-encoding rejection,
// argument immutability, and safety under concurrent use of shared
// operands.
func groupConformance(t *testing.T, g Group) {
	t.Helper()

	r := func() *Scalar {
		s, err := g.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := r(), r()
	p, err := g.RandomElement(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("scalar-field-laws", func(t *testing.T) {
		one, zero := g.NewScalar(1), g.NewScalar(0)
		if !g.AddScalar(a, g.NegScalar(a)).Equal(zero) {
			t.Error("a + (-a) != 0")
		}
		if !g.SubScalar(a, a).Equal(zero) {
			t.Error("a - a != 0")
		}
		if !g.MulScalar(a, g.InvScalar(a)).Equal(one) {
			t.Error("a * a^-1 != 1")
		}
		if !g.AddScalar(a, b).Equal(g.AddScalar(b, a)) {
			t.Error("addition not commutative")
		}
		if !g.MulScalar(a, b).Equal(g.MulScalar(b, a)) {
			t.Error("multiplication not commutative")
		}
		if !g.NewScalar(-1).Equal(g.NegScalar(one)) {
			t.Error("NewScalar(-1) != -1")
		}
		if !g.IsScalar(a) || g.IsScalar(nil) {
			t.Error("IsScalar misclassifies")
		}
		// RandomScalar stays in [0, order) draw after draw.
		for i := 0; i < 32; i++ {
			if !g.IsScalar(r()) {
				t.Fatal("RandomScalar result out of range")
			}
		}
	})

	t.Run("exponent-laws", func(t *testing.T) {
		// g^a · g^b = g^(a+b)
		if !g.Mul(g.BaseExp(a), g.BaseExp(b)).Equal(g.BaseExp(g.AddScalar(a, b))) {
			t.Error("BaseExp not homomorphic")
		}
		// (p^a)^b = p^(ab)
		if !g.Exp(g.Exp(p, a), b).Equal(g.Exp(p, g.MulScalar(a, b))) {
			t.Error("iterated Exp != product exponent")
		}
		if !g.Exp(p, g.NewScalar(0)).Equal(g.Identity()) {
			t.Error("p^0 != identity")
		}
		if !g.Exp(p, g.NewScalar(1)).Equal(p) {
			t.Error("p^1 != p")
		}
		if !g.Mul(p, g.Inv(p)).Equal(g.Identity()) {
			t.Error("p · p^-1 != identity")
		}
		if !g.Div(g.Exp(p, a), p).Equal(g.Exp(p, g.SubScalar(a, g.NewScalar(1)))) {
			t.Error("Div != exponent subtraction")
		}
		if !g.Mul(p, g.Identity()).Equal(p) {
			t.Error("p · 1 != p")
		}
		// BaseExp must agree with Exp on the generator.
		if !g.BaseExp(a).Equal(g.Exp(g.Generator(), a)) {
			t.Error("BaseExp != Exp(Generator)")
		}
	})

	t.Run("multiexp", func(t *testing.T) {
		q, err := g.RandomElement(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Mul(g.Exp(p, a), g.Exp(q, b))
		if got := g.MulExp(p, a, q, b); !got.Equal(want) {
			t.Error("MulExp != product of Exps")
		}
		terms := []Term{{Base: p, Exp: a}, {Base: q, Exp: b}, {Base: g.Generator(), Exp: g.NewScalar(0)}}
		if got := g.MultiExp(terms); !got.Equal(want) {
			t.Error("MultiExp != product of Exps (zero exponent not skipped?)")
		}
		if !g.MultiExp(nil).Equal(g.Identity()) {
			t.Error("empty MultiExp != identity")
		}
		// Precompute must not change results.
		g.Precompute(p)
		if !g.Exp(p, a).Equal(g.MultiExp([]Term{{Base: p, Exp: a}})) {
			t.Error("precomputed base disagrees")
		}
	})

	t.Run("encode-decode", func(t *testing.T) {
		eb := g.EncodeElement(p)
		if len(eb) != g.ElementLen() {
			t.Fatalf("element encoding %d bytes, ElementLen %d", len(eb), g.ElementLen())
		}
		back, err := g.DecodeElement(eb)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(p) || !g.IsElement(back) {
			t.Error("element round-trip broken")
		}
		sb := g.EncodeScalar(a)
		if len(sb) != g.ScalarLen() {
			t.Fatalf("scalar encoding %d bytes, ScalarLen %d", len(sb), g.ScalarLen())
		}
		sback, err := g.DecodeScalar(sb)
		if err != nil {
			t.Fatal(err)
		}
		if !sback.Equal(a) {
			t.Error("scalar round-trip broken")
		}
		// Self-describing form: ID prefix plus the canonical bytes.
		wire, err := WireEncodeElement(p)
		if err != nil {
			t.Fatal(err)
		}
		if wire[0] != byte(g.ID()) || !bytes.Equal(wire[1:], eb) {
			t.Error("wire form is not ID||canonical")
		}
		wback, err := WireDecodeElement(g, wire)
		if err != nil || !wback.Equal(p) {
			t.Errorf("wire element round-trip broken: %v", err)
		}
		// Wrong lengths are rejected.
		if _, err := g.DecodeElement(eb[:len(eb)-1]); err == nil {
			t.Error("short element accepted")
		}
		if _, err := g.DecodeScalar(append(sb, 0)); err == nil {
			t.Error("long scalar accepted")
		}
		// The all-zero encoding never names a usable element.
		if _, err := g.DecodeElement(make([]byte, g.ElementLen())); err == nil {
			t.Error("zero element encoding accepted")
		}
	})

	t.Run("hash-determinism", func(t *testing.T) {
		h1 := g.HashToPoint("conformance", []byte("x"), []byte("y"))
		h2 := g.HashToPoint("conformance", []byte("x"), []byte("y"))
		if !h1.Equal(h2) {
			t.Error("HashToPoint not deterministic")
		}
		if !g.IsElement(h1) {
			t.Error("HashToPoint output not a member")
		}
		if h1.Equal(g.HashToPoint("other-domain", []byte("x"), []byte("y"))) {
			t.Error("domain separation broken")
		}
		// Length framing: ("x","y") and ("xy","") must differ.
		if h1.Equal(g.HashToPoint("conformance", []byte("xy"), []byte(""))) {
			t.Error("input framing broken")
		}
		s1 := g.HashToScalar("conformance", []byte("x"))
		if !s1.Equal(g.HashToScalar("conformance", []byte("x"))) {
			t.Error("HashToScalar not deterministic")
		}
		if !g.IsScalar(s1) {
			t.Error("HashToScalar output out of range")
		}
	})

	t.Run("membership", func(t *testing.T) {
		if !g.IsElement(g.Generator()) || !g.IsElement(p) {
			t.Error("members misclassified")
		}
		if g.IsElement(nil) {
			t.Error("nil accepted as element")
		}
		foreign := Test512().Generator()
		if g.ID() != Test512().ID() && g.IsElement(foreign) {
			t.Error("foreign-group element accepted")
		}
	})

	t.Run("no-argument-mutation", func(t *testing.T) {
		pe, ae := g.EncodeElement(p), g.EncodeScalar(a)
		g.Exp(p, a)
		g.Mul(p, p)
		g.Inv(p)
		g.MulExp(p, a, p, b)
		g.MultiExp([]Term{{Base: p, Exp: a}})
		g.AddScalar(a, b)
		g.MulScalar(a, b)
		g.InvScalar(a)
		g.NegScalar(a)
		g.Precompute(p)
		if !bytes.Equal(pe, g.EncodeElement(p)) {
			t.Error("operations mutated a Point argument")
		}
		if !bytes.Equal(ae, g.EncodeScalar(a)) {
			t.Error("operations mutated a Scalar argument")
		}
	})

	t.Run("concurrent-shared-operands", func(t *testing.T) {
		want := g.Exp(p, a)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if !g.Exp(p, a).Equal(want) {
						t.Error("concurrent Exp disagrees")
						return
					}
					g.Precompute(p) // racing table construction must be safe
					if !g.IsElement(p) {
						t.Error("concurrent IsElement disagrees")
						return
					}
					g.MultiExp([]Term{{Base: p, Exp: a}, {Base: g.Generator(), Exp: b}})
				}
			}()
		}
		wg.Wait()
	})
}

// BenchmarkGroupOps measures every hot operation through the Group
// interface, per backend — the per-op rows of the EXPERIMENTS.md
// modp2048-vs-p256 comparison. "BaseExp" and "MulExp" run with the
// fixed-base tables registered, matching production verification.
func BenchmarkGroupOps(b *testing.B) {
	for _, g := range []Group{MODP2048(), P256(), Test256()} {
		// Fixed operands: two runs, or two builds, time the same work.
		x := g.HashToScalar("bench-ops", []byte("x"))
		y := g.HashToScalar("bench-ops", []byte("y"))
		h := g.HashToPoint("bench-ops", []byte("h"))
		g.Precompute(h)
		p := g.BaseExp(x)
		enc := g.EncodeElement(p)
		g.MulExp(g.Generator(), x, h, y) // build tables untimed
		b.Run(g.Name()+"/BaseExp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.BaseExp(x)
			}
		})
		b.Run(g.Name()+"/Exp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Exp(p, x)
			}
		})
		b.Run(g.Name()+"/MulExp", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.MulExp(g.Generator(), x, h, y)
			}
		})
		b.Run(g.Name()+"/IsElement", func(b *testing.B) {
			// Measure the real membership test on a wire point: lax
			// decodes leave the member flag unset, so IsElement pays
			// the Jacobi symbol (Z_p*) or the cached flag check (P-256).
			var lax Point
			if err := lax.UnmarshalBinary(append([]byte{byte(g.ID())}, enc...)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.IsElement(&lax)
			}
		})
		b.Run(g.Name()+"/DecodeElement", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.DecodeElement(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCrossGroupRejection feeds every backend's self-describing
// encodings to every other backend: the one-byte ID prefix must make
// the decode fail with ErrGroupMismatch, never silently reinterpret.
func TestCrossGroupRejection(t *testing.T) {
	gs := conformanceBackends()
	for _, src := range gs {
		for _, dst := range gs {
			if src.ID() == dst.ID() {
				continue
			}
			pe, err := WireEncodeElement(src.Generator())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WireDecodeElement(dst, pe); !errors.Is(err, ErrGroupMismatch) {
				t.Errorf("%s element decoded by %s: %v", src.Name(), dst.Name(), err)
			}
			se, err := WireEncodeScalar(src.NewScalar(7))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := WireDecodeScalar(dst, se); !errors.Is(err, ErrGroupMismatch) {
				t.Errorf("%s scalar decoded by %s: %v", src.Name(), dst.Name(), err)
			}
		}
	}
	// Unknown IDs are rejected as such.
	bad := []byte{0xEE, 1, 2, 3}
	if _, err := WireDecodeElement(Test256(), bad); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("unknown group id: %v", err)
	}
	var pt Point
	if err := pt.UnmarshalBinary(bad); !errors.Is(err, ErrUnknownGroup) {
		t.Errorf("unknown group id via UnmarshalBinary: %v", err)
	}
}

// TestGobCrossGroupIdentity checks the gob forms protocols exchange:
// a Point gob-decodes into the group that produced it, and the decoded
// value is usable there but rejected (IsElement/IsScalar) everywhere
// else — the property the protocol layers rely on when a share dealt
// over one backend reaches a node running another.
func TestGobCrossGroupIdentity(t *testing.T) {
	src, dst := Test256(), P256()
	enc, err := src.Generator().GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Point
	if err := back.GobDecode(enc); err != nil {
		t.Fatal(err)
	}
	if back.GroupID() != src.ID() {
		t.Fatal("gob round-trip changed group identity")
	}
	if !src.IsElement(&back) {
		t.Error("gob round-trip lost membership in the source group")
	}
	if dst.IsElement(&back) {
		t.Error("foreign gob element accepted by another backend")
	}
	s := src.NewScalar(42)
	senc, err := s.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var sback Scalar
	if err := sback.GobDecode(senc); err != nil {
		t.Fatal(err)
	}
	if !src.IsScalar(&sback) || dst.IsScalar(&sback) {
		t.Error("gob scalar group identity broken")
	}
}
