package sharing

import (
	"crypto/rand"
	"errors"
	"testing"

	"sintra/internal/adversary"
	"sintra/internal/dleq"
	"sintra/internal/group"
)

const testContext = "test|exponent"

func dealExponent(t *testing.T, st *adversary.Structure) (*Exponent, *group.Point, []*PartyKey) {
	t.Helper()
	e, gs, keys, err := DealExponent(group.TestDefault(), st, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return e, gs, keys
}

// randomBase returns g^r and the power (g^s)^r that shares released for
// it must combine to.
func randomBase(t *testing.T, g group.Group, gs *group.Point) (base, want *group.Point) {
	t.Helper()
	r, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return g.BaseExp(r), g.Exp(gs, r)
}

func releaseFrom(t *testing.T, e *Exponent, keys []*PartyKey, base *group.Point, parties ...int) []ExponentShare {
	t.Helper()
	var out []ExponentShare
	for _, i := range parties {
		shares, err := e.Release(keys[i], base, testContext, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, shares...)
	}
	return out
}

func combineOf(t *testing.T, e *Exponent, base *group.Point, shares []ExponentShare) *group.Point {
	t.Helper()
	c := e.Collector(base, testContext)
	for _, sh := range shares {
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Ready() {
		t.Fatal("collector not ready")
	}
	got, err := c.Combine()
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestExponentCombinesToBasePower: any qualified set of released shares
// combines to base^s.
func TestExponentCombinesToBasePower(t *testing.T) {
	for _, c := range []struct {
		st   *adversary.Structure
		sets [][]int
	}{
		{adversary.MustThreshold(4, 1), [][]int{{0, 1}, {2, 3}}},
		{adversary.Example1(), [][]int{{4, 5, 6, 7, 8}, {0, 4, 6}}},
	} {
		e, gs, keys := dealExponent(t, c.st)
		g := e.Group()
		base, want := randomBase(t, g, gs)
		for _, set := range c.sets {
			if got := combineOf(t, e, base, releaseFrom(t, e, keys, base, set...)); !got.Equal(want) {
				t.Fatalf("parties %v combine to another value than base^s", set)
			}
		}
		if got := combineOf(t, e, g.Generator(), releaseFrom(t, e, keys, g.Generator(), c.sets[0]...)); !got.Equal(gs) {
			t.Fatal("shares for the generator do not combine to g^s")
		}
	}
}

// TestExponentVerifyRejectsForgeries: a forged value or proof, a share
// claimed by another party, an ID outside the formula, a value outside
// the group, and a share presented for another base or context all fail.
func TestExponentVerifyRejectsForgeries(t *testing.T) {
	e, gs, keys := dealExponent(t, adversary.MustThreshold(4, 1))
	g := e.Group()
	base, _ := randomBase(t, g, gs)
	good := releaseFrom(t, e, keys, base, 0)[0]
	if err := e.Verify(base, testContext, good); err != nil {
		t.Fatal(err)
	}
	other := group.P256()
	if g.ID() == other.ID() {
		other = group.Test256()
	}
	forge := func(f func(*ExponentShare)) ExponentShare {
		sh := good
		f(&sh)
		return sh
	}
	for _, c := range []struct {
		what string
		sh   ExponentShare
		want error
	}{
		{"tampered value", forge(func(sh *ExponentShare) { sh.Value = g.Mul(sh.Value, g.Generator()) }), ErrInvalidShare},
		{"tampered proof", forge(func(sh *ExponentShare) {
			sh.Proof = &dleq.Proof{C: g.AddScalar(sh.Proof.C, g.NewScalar(1)), Z: sh.Proof.Z}
		}), ErrInvalidShare},
		{"no proof", forge(func(sh *ExponentShare) { sh.Proof = nil }), ErrInvalidShare},
		{"wrong owner", forge(func(sh *ExponentShare) { sh.Party = 1 }), ErrWrongParty},
		{"id out of range", forge(func(sh *ExponentShare) { sh.ID = 99 }), ErrInvalidShare},
		{"negative id", forge(func(sh *ExponentShare) { sh.ID = -1 }), ErrInvalidShare},
		{"no value", forge(func(sh *ExponentShare) { sh.Value = nil }), ErrInvalidShare},
		{"another group's point", forge(func(sh *ExponentShare) { sh.Value = other.Generator() }), ErrInvalidShare},
	} {
		if err := e.Verify(base, testContext, c.sh); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.what, err, c.want)
		}
	}
	if err := e.Verify(base, testContext+"|other", good); !errors.Is(err, ErrInvalidShare) {
		t.Errorf("share replayed under another context: %v", err)
	}
	if err := e.Verify(g.Generator(), testContext, good); !errors.Is(err, ErrInvalidShare) {
		t.Errorf("share replayed for another base: %v", err)
	}
}

// TestCollectorIgnoresDuplicates: a second share for an ID, even a
// tampered one, changes nothing.
func TestCollectorIgnoresDuplicates(t *testing.T) {
	e, gs, keys := dealExponent(t, adversary.MustThreshold(4, 1))
	base, want := randomBase(t, e.Group(), gs)
	shares := releaseFrom(t, e, keys, base, 0, 1)
	c := e.Collector(base, testContext)
	for _, sh := range shares {
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	dup := shares[0]
	dup.Value = e.Group().Generator()
	if err := c.Add(dup); err != nil {
		t.Fatal("duplicate add errored")
	}
	c.AddVerified(dup)
	if got, err := c.Combine(); err != nil || !got.Equal(want) {
		t.Fatalf("combine after duplicates: %v", err)
	}
}

// TestCollectorNotReadyBelowQualifiedSet: below a qualified set the
// collector is not ready, and a party counts only once every share it
// owns is in.
func TestCollectorNotReadyBelowQualifiedSet(t *testing.T) {
	e, gs, keys := dealExponent(t, adversary.MustThreshold(4, 1))
	base, _ := randomBase(t, e.Group(), gs)
	c := e.Collector(base, testContext)
	if c.AddFrom(2, releaseFrom(t, e, keys, base, 2)) || c.Ready() {
		t.Fatal("ready with one share of a 2-of-4 dealing")
	}
	if _, err := c.Combine(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Combine before ready: %v", err)
	}

	// Example 2's formula gives a party several shares. Shrink the
	// parties to a minimal qualified set and withhold one share of a
	// member that owns several.
	e, gs, keys = dealExponent(t, adversary.Example2())
	base, want := randomBase(t, e.Group(), gs)
	set := adversary.FullSet(len(keys))
	for i := range keys {
		if smaller := set.Remove(i); e.Qualified(smaller) {
			set = smaller
		}
	}
	party := -1
	for _, i := range set.Members() {
		if len(keys[i].Shares) > 1 {
			party = i
		}
	}
	if party < 0 {
		t.Fatal("no member of the minimal set owns several shares")
	}
	c = e.Collector(base, testContext)
	shares := releaseFrom(t, e, keys, base, set.Members()...)
	var held ExponentShare
	for _, sh := range shares {
		if sh.Party == party && held.Value == nil {
			held = sh
			continue
		}
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	if c.Ready() {
		t.Fatalf("ready with party %d's shares incomplete", party)
	}
	if err := c.Add(held); err != nil || !c.Ready() {
		t.Fatalf("not ready once party %d's last share is in: %v", party, err)
	}
	if got, err := c.Combine(); err != nil || !got.Equal(want) {
		t.Fatalf("combine from a minimal set: %v", err)
	}
}

// TestAddFromBindsSharesToSender: AddFrom takes only the shares that name
// their sender, and stops at the first one that fails its check.
func TestAddFromBindsSharesToSender(t *testing.T) {
	e, gs, keys := dealExponent(t, adversary.MustThreshold(4, 1))
	base, want := randomBase(t, e.Group(), gs)
	sharesOf := func(i int) []ExponentShare { return releaseFrom(t, e, keys, base, i) }
	c := e.Collector(base, testContext)
	if c.AddFrom(3, append(sharesOf(0), sharesOf(1)...)) || c.Ready() {
		t.Fatal("party 3 relayed parties 0 and 1's shares and they counted")
	}
	bad := sharesOf(2)[0]
	bad.Value = e.Group().Generator()
	if !c.AddFrom(2, []ExponentShare{bad, sharesOf(2)[0]}) {
		t.Fatal("a bad share from its own party was not reported")
	}
	if c.AddFrom(0, sharesOf(0)) || c.Ready() {
		t.Fatal("party 2's good share after its bad one counted")
	}
	if c.AddFrom(1, sharesOf(1)) || !c.Ready() {
		t.Fatal("two parties' own shares do not suffice")
	}
	if got, err := c.Combine(); err != nil || !got.Equal(want) {
		t.Fatalf("combine: %v", err)
	}
}

// TestCollectorRobustToBadShares: a corrupted party's garbage is rejected
// and the honest shares still combine.
func TestCollectorRobustToBadShares(t *testing.T) {
	e, gs, keys := dealExponent(t, adversary.MustThreshold(4, 1))
	base, want := randomBase(t, e.Group(), gs)
	c := e.Collector(base, testContext)
	garbage := ExponentShare{Party: 3, ID: 3, Value: e.Group().Generator()}
	if err := c.Add(garbage); err == nil {
		t.Fatal("garbage share accepted")
	}
	for _, sh := range releaseFrom(t, e, keys, base, 0, 1) {
		if err := c.Add(sh); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := c.Combine(); err != nil || !got.Equal(want) {
		t.Fatalf("combine after garbage: %v", err)
	}
}
