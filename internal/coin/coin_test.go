package coin

import (
	"bytes"
	"crypto/rand"
	"encoding/gob"
	"testing"
	"testing/quick"

	"sintra/internal/adversary"
	"sintra/internal/group"
)

func dealTest(t testing.TB, st *adversary.Structure) (*Params, []*SecretKey) {
	t.Helper()
	p, keys, err := Deal(group.TestDefault(), st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return p, keys
}

func releaseAll(t testing.TB, p *Params, keys []*SecretKey, name string, parties []int) []Share {
	t.Helper()
	var out []Share
	for _, i := range parties {
		shares, err := p.ReleaseShares(keys[i], name, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, shares...)
	}
	return out
}

func combineFrom(t testing.TB, p *Params, shares []Share, name string) Value {
	t.Helper()
	c := NewCombiner(p, name)
	for _, sh := range shares {
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Ready() {
		t.Fatal("combiner not ready")
	}
	v, err := c.Value()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCoinDeterministicAcrossSubsets(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	v1 := combineFrom(t, p, releaseAll(t, p, keys, "round-1", []int{0, 1}), "round-1")
	v2 := combineFrom(t, p, releaseAll(t, p, keys, "round-1", []int{2, 3}), "round-1")
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("different qualified subsets produced different coin values")
	}
}

func TestCoinVariesWithName(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	seen := make(map[uint64]bool)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, n := range names {
		v := combineFrom(t, p, releaseAll(t, p, keys, n, []int{0, 1, 2}), n)
		seen[v.Uint64()] = true
	}
	if len(seen) < len(names) {
		t.Fatalf("coin values collide: %d distinct of %d", len(seen), len(names))
	}
	// Bits should not be constant over many coins.
	ones := 0
	for i := 0; i < 64; i++ {
		n := "bit-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if combineFrom(t, p, releaseAll(t, p, keys, n, []int{0, 1}), n).Bit() {
			ones++
		}
	}
	if ones == 0 || ones == 64 {
		t.Fatalf("coin bit constant over 64 coins (ones=%d)", ones)
	}
}

// TestVerifyShareRejectsForgeries: a coin share is bound to its coin's
// name; the share mechanics themselves are tested in internal/sharing.
func TestVerifyShareRejectsForgeries(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	good := releaseAll(t, p, keys, "x", []int{0})[0]
	if err := p.VerifyShare("x", good); err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyShare("y", good); err == nil {
		t.Fatal("share replayed across coin names")
	}
	if !NewCombiner(p, "y").AddFrom(0, []Share{good}) {
		t.Fatal("combiner for another coin took the share")
	}
}

func TestCoinWithExample1Structure(t *testing.T) {
	st := adversary.Example1()
	p, keys := dealTest(t, st)
	// Honest survivors after corrupting all of class a.
	v1 := combineFrom(t, p, releaseAll(t, p, keys, "r", []int{4, 5, 6, 7, 8}), "r")
	// A different minimal qualified set.
	v2 := combineFrom(t, p, releaseAll(t, p, keys, "r", []int{0, 4, 6}), "r")
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("coin value differs across qualified sets")
	}
	// Class a alone must not suffice.
	c := NewCombiner(p, "r")
	for _, sh := range releaseAll(t, p, keys, "r", []int{0, 1, 2, 3}) {
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	if c.Ready() {
		t.Fatal("corruptible class-a coalition can open the coin")
	}
}

func TestCoinWithExample2Structure(t *testing.T) {
	st := adversary.Example2()
	p, keys := dealTest(t, st)
	// Survivors of site-0 + OS-0 corruption.
	var corrupted adversary.Set
	for i := 0; i < 4; i++ {
		corrupted = corrupted.Add(adversary.Example2Party(0, i))
		corrupted = corrupted.Add(adversary.Example2Party(i, 0))
	}
	honest := corrupted.Complement(16).Members()
	v1 := combineFrom(t, p, releaseAll(t, p, keys, "r", honest), "r")
	if len(v1.Bytes()) != 32 {
		t.Fatal("bad digest length")
	}
	// The corrupted seven cannot open the coin.
	c := NewCombiner(p, "r")
	for _, sh := range releaseAll(t, p, keys, "r", corrupted.Members()) {
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	if c.Ready() {
		t.Fatal("site+OS coalition can open the coin")
	}
}

func TestParamsGobRoundTrip(t *testing.T) {
	st := adversary.Example1()
	p, keys := dealTest(t, st)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	var back Params
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := back.Init(); err != nil {
		t.Fatal(err)
	}
	shares := releaseAll(t, p, keys, "x", []int{0, 4, 6})
	v1 := combineFrom(t, p, shares, "x")
	v2 := combineFrom(t, &back, shares, "x")
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("deserialized params disagree")
	}
}

func TestValueIndexRange(t *testing.T) {
	var v Value
	copy(v.digest[:], bytes.Repeat([]byte{0xAB}, 32))
	for _, n := range []int{1, 3, 7, 16} {
		idx := v.Index(n)
		if idx < 0 || idx >= n {
			t.Fatalf("Index(%d) = %d out of range", n, idx)
		}
	}
	if v.Index(0) != 0 {
		t.Fatal("Index(0) should clamp to 0")
	}
}

func TestInitValidation(t *testing.T) {
	st := adversary.MustThreshold(4, 1)
	p, _ := dealTest(t, st)
	bad := &Params{GroupName: "nope", Structure: st, VerifyKeys: p.VerifyKeys}
	if err := bad.Init(); err == nil {
		t.Fatal("unknown group accepted")
	}
	bad = &Params{GroupName: p.GroupName, Structure: st, VerifyKeys: p.VerifyKeys[:2]}
	if err := bad.Init(); err == nil {
		t.Fatal("key count mismatch accepted")
	}
}

func TestShareValueUnpredictableAcrossIDs(t *testing.T) {
	// Shares from different parties for the same coin must differ (they
	// carry different exponents) — a sanity check against key reuse.
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	shares := releaseAll(t, p, keys, "x", []int{0, 1, 2, 3})
	seen := make(map[string]bool)
	for _, sh := range shares {
		k := sh.Value.String()
		if seen[k] {
			t.Fatal("two parties produced identical coin shares")
		}
		seen[k] = true
	}
}

func BenchmarkReleaseShare(b *testing.B) {
	p, keys := dealTest(b, adversary.MustThreshold(4, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ReleaseShares(keys[0], "bench", rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyShare(b *testing.B) {
	p, keys := dealTest(b, adversary.MustThreshold(4, 1))
	sh, err := p.ReleaseShares(keys[0], "bench", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.VerifyShare("bench", sh[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine(b *testing.B) {
	p, keys := dealTest(b, adversary.MustThreshold(4, 1))
	var shares []Share
	for i := 0; i < 2; i++ {
		sh, err := p.ReleaseShares(keys[i], "bench", rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		shares = append(shares, sh...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCombiner(p, "bench")
		for _, sh := range shares {
			if err := c.Add(sh); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Value(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuickCoinNameDeterminism(t *testing.T) {
	// Property: for any coin name, any qualified subset reconstructs the
	// same value, and the value is stable across combiners.
	st := adversary.MustThreshold(4, 1)
	p, keys := dealTest(t, st)
	f := func(name string) bool {
		v1 := combineFrom(t, p, releaseAll(t, p, keys, name, []int{0, 3}), name)
		v2 := combineFrom(t, p, releaseAll(t, p, keys, name, []int{1, 2}), name)
		return bytes.Equal(v1.Bytes(), v2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestProductionGroupCoin(t *testing.T) {
	// One full share/verify/combine round at the 2048-bit production
	// group: slow (seconds), so skipped under -short.
	if testing.Short() {
		t.Skip("production-size group: slow")
	}
	st := adversary.MustThreshold(4, 1)
	p, keys, err := Deal(group.MODP2048(), st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	v1 := combineFrom(t, p, releaseAll(t, p, keys, "prod", []int{0, 1}), "prod")
	v2 := combineFrom(t, p, releaseAll(t, p, keys, "prod", []int{2, 3}), "prod")
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("production group coin disagrees across subsets")
	}
}
