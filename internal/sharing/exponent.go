package sharing

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"sintra/internal/adversary"
	"sintra/internal/dleq"
	"sintra/internal/group"
)

// Errors reported for exponent shares.
var (
	// ErrInvalidShare is returned for an exponent share whose ID, value or
	// proof fails its check.
	ErrInvalidShare = errors.New("sharing: invalid exponent share")
	// ErrWrongParty is returned when a share is presented for an ID the
	// sender does not own.
	ErrWrongParty = errors.New("sharing: share id not owned by sender")
	// ErrNotReady is returned when combining before a qualified set of
	// shares is available.
	ErrNotReady = errors.New("sharing: not enough verified shares")
)

// Exponent is the public side of a secret s dealt in the exponent, the
// step the threshold coin and TDH2 are both built from (PAPER.md §2.1): a
// dealer shares s and publishes verification keys g^{s_id}; a party
// releases base^{s_id} for each share it owns with a DLEQ proof against
// its key; any qualified set of verified shares interpolates to base^s.
type Exponent struct {
	scheme *Scheme
	keys   []*group.Point
}

// PartyKey is one party's atomic shares of a dealt exponent.
type PartyKey struct {
	// Party is the owner's index.
	Party int
	// Shares are the owner's atomic shares.
	Shares []Share
}

// ExponentShare is base^{s_ID} released by its owner, with its proof.
type ExponentShare struct {
	// Party is the sender.
	Party int
	// ID is the share ID the value corresponds to.
	ID int
	// Value is base^{s_ID}.
	Value *group.Point
	// Proof shows log_g(key_ID) = log_base(Value).
	Proof *dleq.Proof
}

// DealExponent shares a fresh random secret s under the structure's access
// formula. It returns the public side, g^s, and one key per party.
func DealExponent(g group.Group, st *adversary.Structure, rnd io.Reader) (*Exponent, *group.Point, []*PartyKey, error) {
	scheme, err := ForStructure(g, st)
	if err != nil {
		return nil, nil, nil, err
	}
	secret, err := g.RandomScalar(rnd)
	if err != nil {
		return nil, nil, nil, err
	}
	shares, err := scheme.Deal(secret, rnd)
	if err != nil {
		return nil, nil, nil, err
	}
	keys := make([]*PartyKey, st.N())
	for i := range keys {
		keys[i] = &PartyKey{Party: i}
	}
	for _, sh := range shares {
		keys[sh.Party].Shares = append(keys[sh.Party].Shares, sh)
	}
	return &Exponent{scheme: scheme, keys: scheme.VerificationKeys(shares)}, g.BaseExp(secret), keys, nil
}

// NewExponent rebuilds the public side of a dealing from its verification
// keys, one per share ID of the structure's access formula.
func NewExponent(g group.Group, st *adversary.Structure, keys []*group.Point) (*Exponent, error) {
	scheme, err := ForStructure(g, st)
	if err != nil {
		return nil, err
	}
	if len(keys) != scheme.NumShares() {
		return nil, errors.New("sharing: verification key count mismatch")
	}
	return &Exponent{scheme: scheme, keys: keys}, nil
}

// Keys returns the verification keys g^{s_id}, indexed by share ID.
func (e *Exponent) Keys() []*group.Point { return e.keys }

// Group returns the group of the dealing.
func (e *Exponent) Group() group.Group { return e.scheme.g }

// Qualified reports whether the party set can combine shares under the
// dealing's access structure.
func (e *Exponent) Qualified(parties adversary.Set) bool { return e.scheme.Qualified(parties) }

// Precompute registers fixed-base exponentiation tables for the
// verification keys, which every share check exponentiates for the life
// of the deployment.
func (e *Exponent) Precompute() {
	for _, vk := range e.keys {
		e.scheme.g.Precompute(vk)
	}
}

// proofContext binds a share's proof to its use and its share ID.
func proofContext(context string, id int) string {
	return context + "|" + strconv.Itoa(id)
}

// Release produces base^{s_id} with its proof for every share of the key.
// The context names what the shares are for; it must differ between uses
// of one dealing so that a share cannot be replayed from one to another.
func (e *Exponent) Release(k *PartyKey, base *group.Point, context string, rnd io.Reader) ([]ExponentShare, error) {
	g := e.scheme.g
	out := make([]ExponentShare, 0, len(k.Shares))
	for _, sh := range k.Shares {
		value := g.Exp(base, sh.Value)
		st := dleq.Statement{G1: g.Generator(), H1: e.keys[sh.ID], G2: base, H2: value}
		proof, err := dleq.Prove(g, st, sh.Value, proofContext(context, sh.ID), rnd)
		if err != nil {
			return nil, fmt.Errorf("sharing: %w", err)
		}
		out = append(out, ExponentShare{Party: k.Party, ID: sh.ID, Value: value, Proof: proof})
	}
	return out, nil
}

// Verify checks one share against the base and context it was released
// for. The base must be a group element the caller vouches for (derived
// locally or checked before): only the share's value is checked for
// membership here.
func (e *Exponent) Verify(base *group.Point, context string, sh ExponentShare) error {
	if sh.ID < 0 || sh.ID >= len(e.keys) {
		return ErrInvalidShare
	}
	if e.scheme.leaves[sh.ID] != sh.Party {
		return ErrWrongParty
	}
	g := e.scheme.g
	if !g.IsElement(sh.Value) {
		return ErrInvalidShare
	}
	st := dleq.Statement{G1: g.Generator(), H1: e.keys[sh.ID], G2: base, H2: sh.Value, Trusted: true}
	if err := dleq.Verify(g, st, sh.Proof, proofContext(context, sh.ID)); err != nil {
		return ErrInvalidShare
	}
	return nil
}

// Collector accumulates verified shares for one base and context until a
// qualified set is present, then combines them to base^s.
type Collector struct {
	e       *Exponent
	base    *group.Point
	context string
	values  map[int]*group.Point
	parties adversary.Set
	gate    func(adversary.Set) bool
}

// Collector starts collecting shares released for base under context.
func (e *Exponent) Collector(base *group.Point, context string) *Collector {
	return &Collector{e: e, base: base, context: context, values: make(map[int]*group.Point)}
}

// SetGate installs an additional readiness predicate over the set of
// parties whose shares back the combination: Ready and Combine then
// require the contributing parties to satisfy the gate on top of the
// access structure. Asymmetric-trust deployments pass trust.CoinGate so a
// party only accepts a coin vouched for by one of its own quorums; a nil
// gate (the default) keeps the access structure as the only condition.
// Must be set before shares arrive.
func (c *Collector) SetGate(gate func(adversary.Set) bool) { c.gate = gate }

// Add verifies and stores a share. Adding a second share for the same ID
// is a no-op. Invalid shares are rejected and do not affect progress
// (robustness).
func (c *Collector) Add(sh ExponentShare) error {
	if _, ok := c.values[sh.ID]; ok {
		return nil
	}
	if err := c.e.Verify(c.base, c.context, sh); err != nil {
		return err
	}
	c.AddVerified(sh)
	return nil
}

// AddFrom adds the shares that party from sent and reports whether one
// failed its check. A share naming another party is skipped unchecked,
// and the first failure ends the list: an honest party sends neither, so
// one message costs at most one failed proof.
func (c *Collector) AddFrom(from int, shares []ExponentShare) (rejected bool) {
	for _, sh := range shares {
		if sh.Party == from && c.Add(sh) != nil {
			return true
		}
	}
	return false
}

// AddVerified stores a share without checking it: one the caller released
// itself (the protocols add their own shares so when they release them,
// and AddFrom the shares of others) or has checked with Verify. Duplicates
// are ignored.
func (c *Collector) AddVerified(sh ExponentShare) {
	if _, ok := c.values[sh.ID]; ok {
		return
	}
	c.values[sh.ID] = sh.Value
	c.parties = c.parties.Add(sh.Party)
}

// complete returns the parties for which every owned share has been
// verified; interpolation plans may pick any owned share of a listed
// party, so partial parties must not be offered to the plan.
func (c *Collector) complete() adversary.Set {
	var out adversary.Set
	for _, party := range c.parties.Members() {
		all := true
		for _, id := range c.e.scheme.SharesOf(party) {
			if _, ok := c.values[id]; !ok {
				all = false
				break
			}
		}
		if all {
			out = out.Add(party)
		}
	}
	return out
}

func (c *Collector) ready(parties adversary.Set) bool {
	return c.e.scheme.Qualified(parties) && (c.gate == nil || c.gate(parties))
}

// Ready reports whether a qualified set of shares has been collected
// (and, with a gate installed, whether the contributing parties pass it).
func (c *Collector) Ready() bool { return c.ready(c.complete()) }

// Combine interpolates base^s once Ready; the result is independent of
// which qualified set supplied the shares.
func (c *Collector) Combine() (*group.Point, error) {
	parties := c.complete()
	if !c.ready(parties) {
		return nil, ErrNotReady
	}
	return c.e.scheme.ReconstructExponent(parties, c.values)
}
