package adversary

import "testing"

func TestHybridThresholdPredicates(t *testing.T) {
	// n=6, tb=1, tc=1: feasible since 6 > 3·1 + 2·1 = 5.
	st, err := NewHybridThreshold(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Q3() {
		t.Fatal("6 > 3+2 must satisfy the hybrid feasibility condition")
	}
	// Corruptible (lying) sets: at most tb=1.
	if !st.InAdversary(SetOf(3)) || st.InAdversary(SetOf(3, 4)) {
		t.Fatal("InAdversary broken")
	}
	// Quorum: n - tb - tc = 4.
	if !st.IsQuorum(SetOf(0, 1, 2, 3)) || st.IsQuorum(SetOf(0, 1, 2)) {
		t.Fatal("IsQuorum broken")
	}
	// Honest rule: tb + 1 = 2 senders.
	if !st.HasHonest(SetOf(0, 1)) || st.HasHonest(SetOf(0)) {
		t.Fatal("HasHonest broken")
	}
	// Strong rule: 2tb + tc + 1 = 4 senders.
	if !st.IsStrong(SetOf(0, 1, 2, 3)) || st.IsStrong(SetOf(0, 1, 2)) {
		t.Fatal("IsStrong broken")
	}
	tol, err := st.MaxTolerated()
	if err != nil || tol != 2 {
		t.Fatalf("MaxTolerated = %d, %v", tol, err)
	}
	if a, ok := st.HonestCount(); !ok || a != 2 {
		t.Fatalf("HonestCount = %d,%v", a, ok)
	}
	if st.String() != "hybrid(n=6,byzantine=1,crash=1)" {
		t.Fatalf("String = %q", st.String())
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHybridDegeneratesToThreshold(t *testing.T) {
	// tc=0 must agree with the plain threshold structure everywhere.
	hy, err := NewHybridThreshold(7, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	th := MustThreshold(7, 2)
	for v := Set(0); v <= FullSet(7); v++ {
		if hy.InAdversary(v) != th.InAdversary(v) ||
			hy.IsQuorum(v) != th.IsQuorum(v) ||
			hy.IsStrong(v) != th.IsStrong(v) ||
			hy.HasHonest(v) != th.HasHonest(v) {
			t.Fatalf("hybrid(tb=2,tc=0) diverges from threshold at %v", v)
		}
	}
	if hy.Q3() != th.Q3() {
		t.Fatal("Q3 mismatch")
	}
}

func TestHybridFeasibilityBoundary(t *testing.T) {
	cases := []struct {
		n, tb, tc int
		ok        bool
	}{
		{6, 1, 1, true},  // 6 > 5
		{5, 1, 1, false}, // 5 > 5 fails
		{4, 1, 0, true},  // classic
		{8, 1, 2, true},  // 8 > 7
		{7, 1, 2, false}, // 7 > 7 fails
		{10, 2, 1, true}, // 10 > 8
		{10, 0, 4, true}, // crash-only: 10 > 8
		{9, 0, 4, true},  // 9 > 8
		{8, 0, 4, false}, // 8 > 8 fails
	}
	for _, c := range cases {
		st, err := NewHybridThreshold(c.n, c.tb, c.tc)
		if err != nil {
			t.Fatalf("NewHybridThreshold(%d,%d,%d): %v", c.n, c.tb, c.tc, err)
		}
		if st.Q3() != c.ok {
			t.Fatalf("hybrid(%d,%d,%d).Q3() = %v, want %v", c.n, c.tb, c.tc, st.Q3(), c.ok)
		}
	}
	if _, err := NewHybridThreshold(4, 2, 2); err == nil {
		t.Fatal("tb+tc >= n accepted")
	}
	if _, err := NewHybridThreshold(4, -1, 0); err == nil {
		t.Fatal("negative tb accepted")
	}
}

func TestHybridQuorumProperties(t *testing.T) {
	// The protocol-level facts, under the worst allowed fault mix:
	// quorums intersect in honest senders, and the correct servers form a
	// quorum and a strong set.
	st, err := NewHybridThreshold(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := st.N()
	// Worst case: 1 byzantine + 1 crashed.
	byz, crashed := SetOf(5), SetOf(4)
	correct := FullSet(n).Minus(byz).Minus(crashed)
	if !st.IsQuorum(correct) {
		t.Fatal("correct servers do not form a quorum")
	}
	if !st.IsStrong(correct) {
		t.Fatal("correct servers do not form a strong set")
	}
	// Any two quorums intersect in > tb senders (an honest-containing set
	// among SENDERS, since crashed servers never send).
	for v := Set(0); v <= FullSet(n); v++ {
		if !st.IsQuorum(v) {
			continue
		}
		for w := Set(0); w <= FullSet(n); w++ {
			if !st.IsQuorum(w) {
				continue
			}
			if st.InAdversary(v.Intersect(w)) {
				t.Fatalf("quorums %v and %v intersect only in liars", v, w)
			}
		}
	}
	// A strong set minus byzantine and crashed senders still has honest.
	for v := Set(0); v <= FullSet(n); v++ {
		if st.IsStrong(v) && st.InAdversary(v.Minus(byz).Minus(crashed)) {
			t.Fatalf("strong set %v collapses under the fault mix", v)
		}
	}
}
