package adversary

import (
	"errors"
	"fmt"
)

// maxEnumerateParties bounds exhaustive subset enumeration; above this,
// only threshold structures (which never enumerate) are supported.
const maxEnumerateParties = 24

// Structure describes which party subsets the adversary may corrupt,
// together with the secret-sharing access structure the dealer uses.
//
// The two are distinct monotone families. The adversary structure A is
// downward-closed (subsets of corruptible sets are corruptible) and is
// represented by its maximal sets A* (paper §4.1). The access structure is
// upward-closed and is represented by a monotone threshold-gate Formula; it
// is the blueprint for the Benaloh-Leichter linear secret sharing scheme
// (§4.2). They must be compatible:
//
//  1. secrecy   — no corruptible set is qualified: ∀S ∈ A, ¬Access(S);
//  2. liveness  — a quorum minus any corruptible set is still qualified:
//     ∀S, C ∈ A, Access(P ∖ (S ∪ C)).
//
// In the paper's Example 2 the access structure is strictly coarser than
// the complement of A, which is why both are carried explicitly.
//
// A Structure with Thresh >= 0 is the classic threshold structure and gets
// O(1) predicate evaluation; Thresh == -1 marks a generalized structure.
// Fields are exported for serialization but are read-only after construction.
type Structure struct {
	// NParties is n, the total number of servers.
	NParties int
	// Thresh is t for threshold structures, -1 for generalized ones.
	Thresh int
	// MaxSets lists the maximal adversary sets A* (generalized only).
	MaxSets []Set
	// Access is the monotone secret-sharing access formula.
	Access *Formula
	// Hybrid marks a hybrid failure structure (§6): TB Byzantine
	// corruptions plus TC crashes (see hybrid.go). Hybrid structures have
	// Thresh == -1 and nil MaxSets.
	Hybrid bool
	TB, TC int
}

// NewThreshold builds the classic t-of-n adversary structure. The access
// formula is Θ_{t+1}^n over all parties.
func NewThreshold(n, t int) (*Structure, error) {
	if n < 1 || n > MaxParties {
		return nil, fmt.Errorf("adversary: n=%d out of range [1,%d]", n, MaxParties)
	}
	if t < 0 || t >= n {
		return nil, fmt.Errorf("adversary: t=%d out of range [0,%d)", t, n)
	}
	parties := make([]int, n)
	for i := range parties {
		parties[i] = i
	}
	return &Structure{
		NParties: n,
		Thresh:   t,
		Access:   ThresholdOf(t+1, parties),
	}, nil
}

// MustThreshold is NewThreshold that panics on invalid parameters; intended
// for tests and package-level examples.
func MustThreshold(n, t int) *Structure {
	s, err := NewThreshold(n, t)
	if err != nil {
		panic(err)
	}
	return s
}

// NewGeneral builds a generalized adversary structure from the maximal
// corruptible sets and a compatible access formula, validating the two
// compatibility conditions above. The maxSets slice is maximalized (sets
// contained in others are dropped), so callers may pass any generating
// family of A.
func NewGeneral(n int, maxSets []Set, access *Formula) (*Structure, error) {
	if n < 1 || n > maxEnumerateParties {
		return nil, fmt.Errorf("adversary: general structures support 1..%d parties, got %d", maxEnumerateParties, n)
	}
	if err := access.Validate(n); err != nil {
		return nil, err
	}
	if len(maxSets) == 0 {
		return nil, errors.New("adversary: no adversary sets given")
	}
	full := FullSet(n)
	for _, s := range maxSets {
		if !s.SubsetOf(full) {
			return nil, fmt.Errorf("adversary: set %v exceeds party range", s)
		}
		if s == full {
			return nil, errors.New("adversary: full party set cannot be corruptible")
		}
	}
	st := &Structure{
		NParties: n,
		Thresh:   -1,
		MaxSets:  maximalize(maxSets),
		Access:   access,
	}
	if err := st.checkCompatible(); err != nil {
		return nil, err
	}
	return st, nil
}

// NewGeneralFromPredicate builds a generalized structure by exhaustively
// enumerating the sets for which corruptible returns true. Handy for
// structures given as a Boolean condition (the paper's g functions).
func NewGeneralFromPredicate(n int, corruptible func(Set) bool, access *Formula) (*Structure, error) {
	if n < 1 || n > maxEnumerateParties {
		return nil, fmt.Errorf("adversary: general structures support 1..%d parties, got %d", maxEnumerateParties, n)
	}
	var sets []Set
	total := uint64(1) << uint(n)
	for v := uint64(0); v < total; v++ {
		if corruptible(Set(v)) {
			sets = append(sets, Set(v))
		}
	}
	return NewGeneral(n, sets, access)
}

// maximalize drops sets contained in other sets of the family.
func maximalize(sets []Set) []Set {
	sorted := append([]Set(nil), sets...)
	sortSetsByCountDesc(sorted)
	var out []Set
	for _, c := range sorted {
		contained := false
		for _, m := range out {
			if c.SubsetOf(m) {
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, c)
		}
	}
	return out
}

// checkCompatible enforces the secrecy and liveness conditions between the
// adversary structure and the access formula.
func (st *Structure) checkCompatible() error {
	full := FullSet(st.NParties)
	if !st.Access.Eval(full) {
		return errors.New("adversary: access formula rejects the full party set")
	}
	for _, s := range st.MaxSets {
		if st.Access.Eval(s) {
			return fmt.Errorf("adversary: corruptible set %v is qualified (secrecy violated)", s)
		}
	}
	for _, s := range st.MaxSets {
		for _, c := range st.MaxSets {
			rest := full.Minus(s.Union(c))
			if !st.Access.Eval(rest) {
				return fmt.Errorf("adversary: honest remainder %v after corrupting %v during reconstruction by quorum P∖%v is unqualified (liveness violated)", rest, c, s)
			}
		}
	}
	return nil
}

// N returns the number of parties.
func (st *Structure) N() int { return st.NParties }

// IsThreshold reports whether the structure is a plain threshold structure.
func (st *Structure) IsThreshold() bool { return st.Thresh >= 0 }

// InAdversary reports whether the adversary may corrupt all of s (s ∈ A).
func (st *Structure) InAdversary(s Set) bool {
	if st.IsThreshold() {
		return s.Count() <= st.Thresh
	}
	if st.Hybrid {
		return st.hybridInAdversary(s)
	}
	for _, m := range st.MaxSets {
		if s.SubsetOf(m) {
			return true
		}
	}
	return false
}

// HasHonest is the generalized t+1 rule: any set outside the adversary
// structure is guaranteed to contain at least one honest party.
func (st *Structure) HasHonest(s Set) bool { return !st.InAdversary(s) }

// IsQuorum is the generalized n−t rule: s is a quorum iff its complement
// is corruptible, i.e. s ⊇ P∖T for some T ∈ A. Under Q³, any two quorums
// intersect in a set containing an honest party, and the honest parties
// alone always form a quorum.
func (st *Structure) IsQuorum(s Set) bool {
	if st.IsThreshold() {
		return s.Count() >= st.NParties-st.Thresh
	}
	if st.Hybrid {
		return st.hybridIsQuorum(s)
	}
	return st.InAdversary(s.Complement(st.NParties))
}

// IsCore is the generalized 2t+1 rule of the paper (§4.2): s contains
// T ∪ U ∪ {i} for disjoint T, U ∈ A* and i ∉ T ∪ U. Such a set keeps at
// least one honest member after removing any single corruptible set.
func (st *Structure) IsCore(s Set) bool {
	if st.IsThreshold() {
		return s.Count() >= 2*st.Thresh+1
	}
	if st.Hybrid {
		return st.hybridIsStrong(s)
	}
	for i, a := range st.MaxSets {
		if !a.SubsetOf(s) {
			continue
		}
		for j, b := range st.MaxSets {
			if i == j || !a.Disjoint(b) || !b.SubsetOf(s) {
				continue
			}
			if s.Minus(a.Union(b)) != EmptySet {
				return true
			}
		}
	}
	return false
}

// IsStrong is the monotone closure of the 2t+1 rule that the broadcast
// protocols actually rely on: s remains outside the adversary structure
// after removing ANY corruptible set, i.e. ∀C ∈ A: s ∖ C ∉ A. For
// threshold structures this is exactly |s| >= 2t+1. Neither IsCore nor
// IsStrong implies the other in general: the paper's literal S∪T∪{i}
// recipe (§4.2) is vacuous when all maximal sets pairwise intersect (the
// paper's Example 2) and fails the honest-after-removal property in
// Example 1 (e.g. {0,1,2,4,5}), so the protocols count through IsStrong.
// Under Q³ the set of honest parties always satisfies IsStrong, which is
// what guarantees liveness.
func (st *Structure) IsStrong(s Set) bool {
	if st.IsThreshold() {
		return s.Count() >= 2*st.Thresh+1
	}
	if st.Hybrid {
		return st.hybridIsStrong(s)
	}
	for _, c := range st.MaxSets {
		if st.InAdversary(s.Minus(c)) {
			return false
		}
	}
	return true
}

// Q3 reports whether the structure satisfies the Q³ condition: no three
// sets of A cover the full party set. Q³ is necessary and sufficient for
// asynchronous Byzantine agreement with a generalized adversary; n > 3t is
// the threshold special case.
func (st *Structure) Q3() bool {
	if st.IsThreshold() {
		return st.NParties > 3*st.Thresh
	}
	if st.Hybrid {
		return st.hybridQ3()
	}
	full := FullSet(st.NParties)
	biggest := maxCount(st.MaxSets)
	for i, a := range st.MaxSets {
		for j := i; j < len(st.MaxSets); j++ {
			ab := a.Union(st.MaxSets[j])
			if ab.Count()+biggest < st.NParties {
				continue // even the largest third set cannot cover P
			}
			for k := j; k < len(st.MaxSets); k++ {
				if ab.Union(st.MaxSets[k]) == full {
					return false
				}
			}
		}
	}
	return true
}

func maxCount(sets []Set) int {
	best := 0
	for _, s := range sets {
		if c := s.Count(); c > best {
			best = c
		}
	}
	return best
}

// MaximalSets returns the maximal adversary structure A*. For threshold
// structures the family is combinatorially large, so enumeration is only
// supported up to maxEnumerateParties parties.
func (st *Structure) MaximalSets() ([]Set, error) {
	if st.Hybrid {
		// Maximal LYING coalitions are the TB-subsets; enumerate like the
		// threshold case.
		tmp := &Structure{NParties: st.NParties, Thresh: st.TB}
		return tmp.MaximalSets()
	}
	if !st.IsThreshold() {
		return st.MaxSets, nil
	}
	if st.NParties > maxEnumerateParties {
		return nil, fmt.Errorf("adversary: maximal-set enumeration limited to %d parties", maxEnumerateParties)
	}
	var out []Set
	total := uint64(1) << uint(st.NParties)
	for v := uint64(0); v < total; v++ {
		if Set(v).Count() == st.Thresh {
			out = append(out, Set(v))
		}
	}
	return out, nil
}

// MaxTolerated returns the size of the largest corruptible set — the head-
// line tolerance number of the structure (e.g. 7 for the paper's Example 2
// versus 5 for any threshold structure on 16 servers).
func (st *Structure) MaxTolerated() (int, error) {
	if st.IsThreshold() {
		return st.Thresh, nil
	}
	if st.Hybrid {
		return st.TB + st.TC, nil
	}
	return maxCount(st.MaxSets), nil
}

// HonestCount reports the size of the smallest set the honest rule
// accepts when the rule is a pure count: t+1, or tb+1 for a hybrid
// structure. ok is false for generalized structures.
func (st *Structure) HonestCount() (k int, ok bool) {
	switch {
	case st.IsThreshold():
		return st.Thresh + 1, true
	case st.Hybrid:
		return st.TB + 1, true
	default:
		return 0, false
	}
}

// Validate performs a full sanity check of the structure.
func (st *Structure) Validate() error {
	if st.NParties < 1 || st.NParties > MaxParties {
		return fmt.Errorf("adversary: bad party count %d", st.NParties)
	}
	if st.Access == nil {
		return errors.New("adversary: missing access formula")
	}
	if err := st.Access.Validate(st.NParties); err != nil {
		return err
	}
	if st.IsThreshold() {
		if st.Thresh >= st.NParties {
			return fmt.Errorf("adversary: threshold %d >= n=%d", st.Thresh, st.NParties)
		}
		return nil
	}
	if st.Hybrid {
		return st.hybridValidate()
	}
	if len(st.MaxSets) == 0 {
		return errors.New("adversary: general structure without maximal sets")
	}
	return st.checkCompatible()
}

// String summarizes the structure.
func (st *Structure) String() string {
	if st.IsThreshold() {
		return fmt.Sprintf("threshold(n=%d,t=%d)", st.NParties, st.Thresh)
	}
	if st.Hybrid {
		return fmt.Sprintf("hybrid(n=%d,byzantine=%d,crash=%d)", st.NParties, st.TB, st.TC)
	}
	return fmt.Sprintf("general(n=%d,|A*|=%d,access=%s)", st.NParties, len(st.MaxSets), st.Access)
}
