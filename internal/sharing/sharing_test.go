package sharing

import (
	"crypto/rand"
	mrand "math/rand"
	"sync"
	"testing"
	"testing/quick"

	"sintra/internal/adversary"
	"sintra/internal/group"
)

// randScalar derives a deterministic scalar from a seeded source, for
// the property-based tests.
func randScalar(g group.Group, rng *mrand.Rand) *group.Scalar {
	s, _ := g.RandomScalar(rng) // a math/rand source never fails
	return s
}

func dealRandom(t *testing.T, s *Scheme) (*group.Scalar, []Share) {
	t.Helper()
	secret, err := s.Group().RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := s.Deal(secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return secret, shares
}

func valueMap(shares []Share) map[int]*group.Scalar {
	m := make(map[int]*group.Scalar, len(shares))
	for _, sh := range shares {
		m[sh.ID] = sh.Value
	}
	return m
}

func TestThresholdRoundTrip(t *testing.T) {
	g := group.TestDefault()
	s, err := NewThresholdScheme(g, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShares() != 5 {
		t.Fatalf("NumShares = %d", s.NumShares())
	}
	secret, shares := dealRandom(t, s)
	// Every 3-subset reconstructs; every 2-subset is unqualified.
	vm := valueMap(shares)
	for _, parties := range []adversary.Set{
		adversary.SetOf(0, 1, 2),
		adversary.SetOf(2, 3, 4),
		adversary.SetOf(0, 2, 4),
		adversary.SetOf(0, 1, 2, 3, 4),
	} {
		got, err := s.Reconstruct(parties, vm)
		if err != nil {
			t.Fatalf("Reconstruct(%v): %v", parties, err)
		}
		if !got.Equal(secret) {
			t.Fatalf("Reconstruct(%v) wrong secret", parties)
		}
	}
	if _, err := s.Reconstruct(adversary.SetOf(1, 3), vm); err == nil {
		t.Fatal("unqualified set reconstructed")
	}
}

func TestSharesOfThreshold(t *testing.T) {
	g := group.TestDefault()
	s, _ := NewThresholdScheme(g, 4, 1)
	for p := 0; p < 4; p++ {
		ids := s.SharesOf(p)
		if len(ids) != 1 || ids[0] != p {
			t.Fatalf("SharesOf(%d) = %v", p, ids)
		}
		owner, err := s.PartyOf(ids[0])
		if err != nil || owner != p {
			t.Fatalf("PartyOf(%d) = %d, %v", ids[0], owner, err)
		}
	}
	if _, err := s.PartyOf(99); err == nil {
		t.Fatal("out-of-range share id accepted")
	}
}

func TestDealRejectsBadSecret(t *testing.T) {
	g := group.TestDefault()
	s, _ := NewThresholdScheme(g, 4, 1)
	if _, err := s.Deal(nil, rand.Reader); err == nil {
		t.Fatal("nil secret accepted")
	}
	foreign := group.Test512()
	if foreign.ID() == g.ID() {
		t.Fatal("test expects distinct groups")
	}
	if _, err := s.Deal(foreign.NewScalar(1), rand.Reader); err == nil {
		t.Fatal("foreign-group secret accepted")
	}
}

func TestNestedFormulaRoundTrip(t *testing.T) {
	g := group.TestDefault()
	// (P0 AND P1) OR Θ2(P2,P3,P4)
	access := adversary.Or(
		adversary.And(adversary.Leaf(0), adversary.Leaf(1)),
		adversary.ThresholdOf(2, []int{2, 3, 4}),
	)
	s, err := NewScheme(g, 5, access)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumShares() != 5 {
		t.Fatalf("NumShares = %d, want 5", s.NumShares())
	}
	secret, shares := dealRandom(t, s)
	vm := valueMap(shares)
	for _, parties := range []adversary.Set{
		adversary.SetOf(0, 1),
		adversary.SetOf(2, 4),
		adversary.SetOf(3, 4),
		adversary.SetOf(0, 1, 2, 3, 4),
	} {
		got, err := s.Reconstruct(parties, vm)
		if err != nil {
			t.Fatalf("Reconstruct(%v): %v", parties, err)
		}
		if !got.Equal(secret) {
			t.Fatalf("Reconstruct(%v) wrong secret", parties)
		}
	}
	for _, parties := range []adversary.Set{
		adversary.SetOf(0),
		adversary.SetOf(0, 2),
		adversary.SetOf(1, 3),
	} {
		if _, err := s.Reconstruct(parties, vm); err == nil {
			t.Fatalf("unqualified %v reconstructed", parties)
		}
	}
}

func TestExample1SchemeAllQualifiedSets(t *testing.T) {
	g := group.TestDefault()
	st := adversary.Example1()
	s, err := ForStructure(g, st)
	if err != nil {
		t.Fatal(err)
	}
	secret, shares := dealRandom(t, s)
	vm := valueMap(shares)
	// Exhaustively check agreement between formula and reconstruction for
	// all 2^9 subsets.
	for v := adversary.Set(0); v <= adversary.FullSet(9); v++ {
		got, err := s.Reconstruct(v, vm)
		if s.Qualified(v) {
			if err != nil {
				t.Fatalf("qualified %v failed: %v", v, err)
			}
			if !got.Equal(secret) {
				t.Fatalf("qualified %v reconstructed wrong secret", v)
			}
		} else if err == nil {
			t.Fatalf("unqualified %v reconstructed", v)
		}
	}
}

func TestExample2SchemePaperSets(t *testing.T) {
	g := group.TestDefault()
	st := adversary.Example2()
	s, err := ForStructure(g, st)
	if err != nil {
		t.Fatal(err)
	}
	secret, shares := dealRandom(t, s)
	vm := valueMap(shares)
	// Honest survivors of a site+OS corruption must reconstruct.
	var corrupted adversary.Set
	for i := 0; i < 4; i++ {
		corrupted = corrupted.Add(adversary.Example2Party(0, i))
		corrupted = corrupted.Add(adversary.Example2Party(i, 0))
	}
	honest := corrupted.Complement(16)
	got, err := s.Reconstruct(honest, vm)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(secret) {
		t.Fatal("honest survivors reconstructed wrong secret")
	}
	// The corrupted seven must not reconstruct.
	if _, err := s.Reconstruct(corrupted, vm); err == nil {
		t.Fatal("site+OS coalition reconstructed the secret")
	}
	// Minimal qualified set: a 2x2 subgrid.
	sub := adversary.SetOf(
		adversary.Example2Party(1, 1), adversary.Example2Party(1, 2),
		adversary.Example2Party(2, 1), adversary.Example2Party(2, 2),
	)
	got, err = s.Reconstruct(sub, vm)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(secret) {
		t.Fatal("2x2 subgrid reconstructed wrong secret")
	}
}

func TestReconstructExponent(t *testing.T) {
	g := group.TestDefault()
	st := adversary.Example1()
	s, err := ForStructure(g, st)
	if err != nil {
		t.Fatal(err)
	}
	secret, shares := dealRandom(t, s)
	// Exponentiate a second base by each share, as the coin does.
	base := g.HashToPoint("coin-base", []byte("x"))
	elems := make(map[int]*group.Point, len(shares))
	for _, sh := range shares {
		elems[sh.ID] = g.Exp(base, sh.Value)
	}
	want := g.Exp(base, secret)
	for _, parties := range []adversary.Set{
		adversary.SetOf(0, 4, 6),
		adversary.SetOf(4, 5, 6, 7, 8),
		adversary.FullSet(9),
	} {
		got, err := s.ReconstructExponent(parties, elems)
		if err != nil {
			t.Fatalf("ReconstructExponent(%v): %v", parties, err)
		}
		if !got.Equal(want) {
			t.Fatalf("ReconstructExponent(%v) wrong value", parties)
		}
	}
	if _, err := s.ReconstructExponent(adversary.SetOf(0, 1, 2, 3), elems); err == nil {
		t.Fatal("unqualified exponent reconstruction succeeded")
	}
}

func TestReconstructMissingShare(t *testing.T) {
	g := group.TestDefault()
	s, _ := NewThresholdScheme(g, 4, 1)
	secret, shares := dealRandom(t, s)
	_ = secret
	vm := valueMap(shares)
	delete(vm, 1)
	if _, err := s.Reconstruct(adversary.SetOf(0, 1), vm); err == nil {
		t.Fatal("missing planned share not detected")
	}
	// A set avoiding the missing share still works.
	if _, err := s.Reconstruct(adversary.SetOf(0, 2), vm); err != nil {
		t.Fatal(err)
	}
}

func TestVerificationKeys(t *testing.T) {
	g := group.TestDefault()
	s, _ := NewThresholdScheme(g, 4, 1)
	secret, shares := dealRandom(t, s)
	vks := s.VerificationKeys(shares)
	if len(vks) != len(shares) {
		t.Fatal("wrong number of verification keys")
	}
	for i, sh := range shares {
		if !vks[i].Equal(g.BaseExp(sh.Value)) {
			t.Fatal("verification key mismatch")
		}
	}
	// In-exponent reconstruction of the verification keys gives g^secret.
	elems := make(map[int]*group.Point)
	for i := range vks {
		elems[i] = vks[i]
	}
	got, err := s.ReconstructExponent(adversary.SetOf(1, 2), elems)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g.BaseExp(secret)) {
		t.Fatal("verification keys do not reconstruct g^secret")
	}
}

func TestLinearityProperty(t *testing.T) {
	// Property: sharing is linear — shares of s1 plus shares of s2
	// reconstruct to s1+s2, using the same scheme and leaf order.
	g := group.TestDefault()
	st := adversary.Example1()
	s, err := ForStructure(g, st)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		s1 := randScalar(g, rng)
		s2 := randScalar(g, rng)
		sh1, err := s.Deal(s1, rand.Reader)
		if err != nil {
			return false
		}
		sh2, err := s.Deal(s2, rand.Reader)
		if err != nil {
			return false
		}
		sum := make(map[int]*group.Scalar, len(sh1))
		for i := range sh1 {
			sum[sh1[i].ID] = g.AddScalar(sh1[i].Value, sh2[i].Value)
		}
		got, err := s.Reconstruct(adversary.SetOf(0, 5, 7), sum)
		if err != nil {
			return false
		}
		return got.Equal(g.AddScalar(s1, s2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicPlan(t *testing.T) {
	// Two calls with the same party set must produce identical plans, so
	// distributed parties agree on recombination without communication.
	g := group.TestDefault()
	st := adversary.Example2()
	s, err := ForStructure(g, st)
	if err != nil {
		t.Fatal(err)
	}
	parties := adversary.SetOf(5, 6, 9, 10, 13, 14)
	p1, err := s.Coefficients(parties)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Coefficients(parties)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatal("plan size differs")
	}
	for id, c := range p1 {
		if p2[id] == nil || !p2[id].Equal(c) {
			t.Fatal("plan not deterministic")
		}
	}
	// The plan only selects shares of the given parties.
	for id := range p1 {
		owner, err := s.PartyOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if !parties.Has(owner) {
			t.Fatalf("plan selected share %d of absent party %d", id, owner)
		}
	}
}

func BenchmarkDealExample2(b *testing.B) {
	g := group.TestDefault()
	s, err := ForStructure(g, adversary.Example2())
	if err != nil {
		b.Fatal(err)
	}
	secret, _ := g.RandomScalar(rand.Reader)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Deal(secret, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructThreshold(b *testing.B) {
	g := group.TestDefault()
	s, _ := NewThresholdScheme(g, 16, 5)
	secret, _ := g.RandomScalar(rand.Reader)
	shares, _ := s.Deal(secret, rand.Reader)
	vm := valueMap(shares)
	parties := adversary.SetOf(0, 1, 2, 3, 4, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Reconstruct(parties, vm); err != nil {
			b.Fatal(err)
		}
	}
}

// randomFormula builds a random monotone formula over n parties with the
// given depth budget, driven by a deterministic source.
func randomFormula(rng *mrand.Rand, n, depth int) *adversary.Formula {
	if depth == 0 || rng.Intn(3) == 0 {
		return adversary.Leaf(rng.Intn(n))
	}
	kids := 2 + rng.Intn(3)
	children := make([]*adversary.Formula, kids)
	for i := range children {
		children[i] = randomFormula(rng, n, depth-1)
	}
	k := 1 + rng.Intn(kids)
	return adversary.Threshold(k, children...)
}

// TestQuickRandomFormulas checks, for random monotone access formulas,
// that reconstruction succeeds exactly on qualified sets and always
// yields the dealt secret — the defining property of the Benaloh-Leichter
// construction.
func TestQuickRandomFormulas(t *testing.T) {
	g := group.TestDefault()
	const n = 6
	f := func(seed int64) bool {
		rng := mrand.New(mrand.NewSource(seed))
		access := randomFormula(rng, n, 3)
		if !access.Eval(adversary.FullSet(n)) {
			return true // degenerate (cannot happen for monotone gates) — skip
		}
		s, err := NewScheme(g, n, access)
		if err != nil {
			return false
		}
		secret := randScalar(g, rng)
		shares, err := s.Deal(secret, rand.Reader)
		if err != nil {
			return false
		}
		vm := valueMap(shares)
		for v := adversary.Set(0); v <= adversary.FullSet(n); v++ {
			got, err := s.Reconstruct(v, vm)
			if s.Qualified(v) {
				if err != nil || !got.Equal(secret) {
					return false
				}
			} else if err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCoefficientsCachedAndCopied checks the recombination-plan cache:
// repeated qualified sets reuse the cached plan internally, while the
// exported Coefficients hands out independent copies that callers may
// mutate freely.
func TestCoefficientsCachedAndCopied(t *testing.T) {
	g := group.TestDefault()
	s, err := NewThresholdScheme(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	set := adversary.SetOf(0, 1)
	p1, err := s.Coefficients(set)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := s.plan(set)
	if err != nil {
		t.Fatal(err)
	}
	// Rebind entries of the exported copy; the cached plan (and future
	// copies) must be unaffected. Scalars themselves are immutable.
	for id := range p1 {
		p1[id] = g.AddScalar(p1[id], g.NewScalar(7))
	}
	p2, err := s.Coefficients(set)
	if err != nil {
		t.Fatal(err)
	}
	for id, c := range p2 {
		if c.Equal(p1[id]) {
			t.Fatal("cached plan was mutated through the exported copy")
		}
		if !c.Equal(cached[id]) {
			t.Fatal("second Coefficients call diverges from cached plan")
		}
	}
	if _, err := s.Coefficients(adversary.SetOf(3)); err == nil {
		t.Fatal("unqualified set accepted")
	}
}

// TestPlanCacheConcurrent hammers the plan cache from many goroutines
// (the verify-pool sharing pattern) under the race detector.
func TestPlanCacheConcurrent(t *testing.T) {
	g := group.TestDefault()
	s, err := NewThresholdScheme(g, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	secret := g.NewScalar(1234)
	shares, err := s.Deal(secret, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[int]*group.Scalar)
	for _, sh := range shares {
		values[sh.ID] = sh.Value
	}
	sets := []adversary.Set{
		adversary.SetOf(0, 1, 2), adversary.SetOf(1, 2, 3),
		adversary.SetOf(4, 5, 6), adversary.SetOf(0, 3, 6),
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				for _, set := range sets {
					got, err := s.Reconstruct(set, values)
					if err != nil {
						panic(err)
					}
					if !got.Equal(secret) {
						panic("reconstruction diverged under concurrency")
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkLagrangeCached shows the recombination-plan cache: "cold"
// recomputes the formula walk and Lagrange inversion every time (the
// pre-pipeline behavior), "warm" is a cache hit (the steady state of a
// run, where the same quorum recurs for every coin flip).
func BenchmarkLagrangeCached(b *testing.B) {
	g := group.TestDefault()
	s, err := NewThresholdScheme(g, 16, 5)
	if err != nil {
		b.Fatal(err)
	}
	set := adversary.SetOf(0, 2, 4, 6, 8, 10)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.computePlan(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		if _, err := s.plan(set); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.plan(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}
