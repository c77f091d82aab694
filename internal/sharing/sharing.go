// Package sharing implements linear secret sharing over the scalar field
// Z_q of a prime-order group: plain Shamir sharing for threshold access
// structures and the Benaloh-Leichter construction for arbitrary monotone
// threshold-gate formulas (Cachin, DSN 2001, §4.2; Benaloh-Leichter,
// CRYPTO '88).
//
// The access formula is interpreted as a share tree: each Θ_k gate Shamir-
// shares its value with a degree k-1 polynomial among its children, and
// each leaf hands the arriving value to its party. A party may therefore
// hold several atomic shares, one per leaf labelled with its index. Because
// the scheme is linear, a secret can be reconstructed either in the field
// (from scalar shares) or "in the exponent" (from group elements g^share).
//
// Exponent is that second use as one primitive, the one the threshold
// coin (internal/coin) and the TDH2 cryptosystem (internal/threnc) are
// both built from: a dealer shares s and publishes verification keys
// g^{s_id}; a party releases base^{s_id} with a DLEQ proof bound to a
// caller's context; a Collector verifies shares and interpolates base^s
// from a qualified set. All arithmetic goes through the opaque
// Scalar/Point API, so the scheme works unchanged over every group backend.
package sharing

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"sintra/internal/adversary"
	"sintra/internal/group"
)

// Errors reported by the scheme.
var (
	// ErrUnqualified is returned when the available parties do not satisfy
	// the access structure.
	ErrUnqualified = errors.New("sharing: party set is not qualified")
	// ErrMissingShare is returned when a reconstruction input lacks a share
	// selected by the recombination plan.
	ErrMissingShare = errors.New("sharing: missing share value")
)

// Share is one atomic share: the value assigned to one leaf of the access
// formula, owned by the leaf's party.
type Share struct {
	// ID is the leaf index in depth-first order (stable for a formula).
	ID int
	// Party is the owner of the leaf.
	Party int
	// Value is the share scalar in Z_q.
	Value *group.Scalar
}

// Scheme is a linear secret sharing scheme for one access formula.
type Scheme struct {
	g      group.Group
	n      int
	access *adversary.Formula
	leaves []int // leaf index -> party

	// planMu guards planCache, the memoized recombination plans keyed
	// by qualified set. The same few party sets recur for every coin
	// flip and threshold decryption of a run, and a plan costs a full
	// formula walk plus Lagrange interpolation with modular inverses —
	// worth caching. Cached plans are shared read-only snapshots;
	// scalars are immutable, but the maps must never be mutated.
	planMu    sync.RWMutex
	planCache map[adversary.Set]map[int]*group.Scalar
}

// maxCachedPlans bounds the plan cache; there is one possible entry
// per subset of at most 64 parties, so an adversary feeding unusual
// quorums must not grow it without bound. Resetting (rather than LRU)
// keeps the hot path a plain map read.
const maxCachedPlans = 1024

// NewScheme builds a scheme for the given monotone access formula over n
// parties.
func NewScheme(g group.Group, n int, access *adversary.Formula) (*Scheme, error) {
	if err := access.Validate(n); err != nil {
		return nil, fmt.Errorf("sharing: %w", err)
	}
	s := &Scheme{g: g, n: n, access: access}
	s.collectLeaves(access)
	return s, nil
}

// NewThresholdScheme builds a plain (t+1)-out-of-n Shamir scheme, the
// special case where each party holds exactly one share.
func NewThresholdScheme(g group.Group, n, t int) (*Scheme, error) {
	if t < 0 || t >= n {
		return nil, fmt.Errorf("sharing: threshold %d out of range for n=%d", t, n)
	}
	parties := make([]int, n)
	for i := range parties {
		parties[i] = i
	}
	return NewScheme(g, n, adversary.ThresholdOf(t+1, parties))
}

// ForStructure builds the scheme for an adversary structure's access
// formula.
func ForStructure(g group.Group, st *adversary.Structure) (*Scheme, error) {
	return NewScheme(g, st.N(), st.Access)
}

func (s *Scheme) collectLeaves(f *adversary.Formula) {
	if f.IsLeaf() {
		s.leaves = append(s.leaves, f.Party)
		return
	}
	for _, c := range f.Children {
		s.collectLeaves(c)
	}
}

// Group returns the underlying group.
func (s *Scheme) Group() group.Group { return s.g }

// N returns the number of parties.
func (s *Scheme) N() int { return s.n }

// NumShares returns the total number of atomic shares (formula leaves).
func (s *Scheme) NumShares() int { return len(s.leaves) }

// PartyOf returns the owner of share id.
func (s *Scheme) PartyOf(id int) (int, error) {
	if id < 0 || id >= len(s.leaves) {
		return 0, fmt.Errorf("sharing: share id %d out of range", id)
	}
	return s.leaves[id], nil
}

// SharesOf returns the share IDs owned by a party.
func (s *Scheme) SharesOf(party int) []int {
	var out []int
	for id, p := range s.leaves {
		if p == party {
			out = append(out, id)
		}
	}
	return out
}

// Deal splits the secret into atomic shares, one per leaf, in leaf order.
func (s *Scheme) Deal(secret *group.Scalar, rnd io.Reader) ([]Share, error) {
	if !s.g.IsScalar(secret) {
		return nil, errors.New("sharing: secret is not a field scalar")
	}
	shares := make([]Share, 0, len(s.leaves))
	next := 0
	var walk func(f *adversary.Formula, value *group.Scalar) error
	walk = func(f *adversary.Formula, value *group.Scalar) error {
		if f.IsLeaf() {
			shares = append(shares, Share{ID: next, Party: f.Party, Value: value})
			next++
			return nil
		}
		// Shamir-share value with a degree K-1 polynomial; child j
		// receives f(j+1).
		coeffs := make([]*group.Scalar, f.K)
		coeffs[0] = value
		for i := 1; i < f.K; i++ {
			c, err := s.g.RandomScalar(rnd)
			if err != nil {
				return err
			}
			coeffs[i] = c
		}
		for j, child := range f.Children {
			x := s.g.NewScalar(int64(j + 1))
			if err := walk(child, s.evalPoly(coeffs, x)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(s.access, secret); err != nil {
		return nil, err
	}
	return shares, nil
}

// evalPoly evaluates the polynomial with the given coefficients at x, mod Q.
func (s *Scheme) evalPoly(coeffs []*group.Scalar, x *group.Scalar) *group.Scalar {
	// Horner's rule.
	acc := s.g.NewScalar(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = s.g.AddScalar(s.g.MulScalar(acc, x), coeffs[i])
	}
	return acc
}

// Qualified reports whether the party set satisfies the access structure.
func (s *Scheme) Qualified(parties adversary.Set) bool {
	return s.access.Eval(parties)
}

// Coefficients computes a recombination plan for the given qualified party
// set: a map from share ID to coefficient c such that
//
//	secret = Σ_id c_id · value_id  (mod Q).
//
// Only shares owned by the given parties appear in the plan; the selection
// is deterministic (first satisfied children win) so all honest parties
// derive the same plan for the same set.
func (s *Scheme) Coefficients(parties adversary.Set) (map[int]*group.Scalar, error) {
	plan, err := s.plan(parties)
	if err != nil {
		return nil, err
	}
	// Hand out a copy of the map (scalars are immutable, the cached map
	// is not): callers may add or delete entries.
	out := make(map[int]*group.Scalar, len(plan))
	for id, c := range plan {
		out[id] = c
	}
	return out, nil
}

// plan returns the shared, read-only recombination plan for a
// qualified set, computing and caching it on first use.
func (s *Scheme) plan(parties adversary.Set) (map[int]*group.Scalar, error) {
	s.planMu.RLock()
	plan, ok := s.planCache[parties]
	s.planMu.RUnlock()
	if ok {
		return plan, nil
	}
	plan, err := s.computePlan(parties)
	if err != nil {
		return nil, err
	}
	s.planMu.Lock()
	if s.planCache == nil || len(s.planCache) >= maxCachedPlans {
		s.planCache = make(map[adversary.Set]map[int]*group.Scalar)
	}
	s.planCache[parties] = plan
	s.planMu.Unlock()
	return plan, nil
}

func (s *Scheme) computePlan(parties adversary.Set) (map[int]*group.Scalar, error) {
	if !s.Qualified(parties) {
		return nil, ErrUnqualified
	}
	plan := make(map[int]*group.Scalar)
	leafIdx := 0
	var walk func(f *adversary.Formula, factor *group.Scalar, active bool) error
	walk = func(f *adversary.Formula, factor *group.Scalar, active bool) error {
		if f.IsLeaf() {
			if active {
				plan[leafIdx] = factor
			}
			leafIdx++
			return nil
		}
		if !active {
			// Still advance the leaf counter through the subtree.
			for _, c := range f.Children {
				if err := walk(c, nil, false); err != nil {
					return err
				}
			}
			return nil
		}
		// Choose the first K satisfied children.
		var chosen []int
		for j, c := range f.Children {
			if c.Eval(parties) {
				chosen = append(chosen, j)
				if len(chosen) == f.K {
					break
				}
			}
		}
		if len(chosen) < f.K {
			return ErrUnqualified // cannot happen if Eval was true
		}
		lambdas := s.lagrangeAtZero(chosen)
		pos := 0
		for j, c := range f.Children {
			if pos < len(chosen) && chosen[pos] == j {
				sub := s.g.MulScalar(factor, lambdas[pos])
				if err := walk(c, sub, true); err != nil {
					return err
				}
				pos++
			} else {
				if err := walk(c, nil, false); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(s.access, s.g.NewScalar(1), true); err != nil {
		return nil, err
	}
	return plan, nil
}

// lagrangeAtZero computes the Lagrange coefficients at x=0 for the points
// x_j = chosen[j]+1.
func (s *Scheme) lagrangeAtZero(chosen []int) []*group.Scalar {
	out := make([]*group.Scalar, len(chosen))
	for i, ji := range chosen {
		xi := s.g.NewScalar(int64(ji + 1))
		num := s.g.NewScalar(1)
		den := s.g.NewScalar(1)
		for k, jk := range chosen {
			if k == i {
				continue
			}
			xk := s.g.NewScalar(int64(jk + 1))
			num = s.g.MulScalar(num, xk)
			den = s.g.MulScalar(den, s.g.SubScalar(xk, xi))
		}
		out[i] = s.g.MulScalar(num, s.g.InvScalar(den))
	}
	return out
}

// Reconstruct recovers the secret from scalar shares of the given parties.
// values maps share ID to share value; extra entries are ignored, missing
// planned entries are an error.
func (s *Scheme) Reconstruct(parties adversary.Set, values map[int]*group.Scalar) (*group.Scalar, error) {
	plan, err := s.plan(parties)
	if err != nil {
		return nil, err
	}
	acc := s.g.NewScalar(0)
	for id, c := range plan {
		v, ok := values[id]
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrMissingShare, id)
		}
		acc = s.g.AddScalar(acc, s.g.MulScalar(c, v))
	}
	return acc, nil
}

// ReconstructExponent recovers g'^secret from group elements g'^value for
// the planned shares of a qualified party set:
//
//	g'^secret = Π_id (g'^value_id)^{c_id},
//
// evaluated as one multi-exponentiation. elements maps share ID to the
// group element; extra entries are ignored.
func (s *Scheme) ReconstructExponent(parties adversary.Set, elements map[int]*group.Point) (*group.Point, error) {
	plan, err := s.plan(parties)
	if err != nil {
		return nil, err
	}
	terms := make([]group.Term, 0, len(plan))
	for id, c := range plan {
		e, ok := elements[id]
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrMissingShare, id)
		}
		terms = append(terms, group.Term{Base: e, Exp: c})
	}
	return s.g.MultiExp(terms), nil
}

// VerificationKeys derives the public verification keys g^value for each
// share from a fresh dealing. Protocols publish these so share validity
// proofs (DLEQ) can be checked by everyone.
func (s *Scheme) VerificationKeys(shares []Share) []*group.Point {
	out := make([]*group.Point, len(shares))
	for i, sh := range shares {
		out[i] = s.g.BaseExp(sh.Value)
	}
	return out
}
