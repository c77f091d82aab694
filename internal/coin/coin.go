// Package coin implements the robust threshold coin-tossing scheme used by
// the randomized Byzantine agreement protocol of Cachin, Kursawe, and Shoup
// ("Random oracles in Constantinople", PODC 2000), referenced throughout
// the paper as the source of "arbitrarily many unpredictable random bits"
// (§2.1, §3).
//
// A trusted dealer shares a secret exponent s with the linear secret
// sharing scheme of the deployment's adversary structure and publishes
// per-share verification keys g^{s_id}. A coin with name N has the value
// derived from G(N)^s where G is a hash onto the group: party i releases
// the coin shares G(N)^{s_id} for its share IDs together with a DLEQ proof
// of consistency with the verification key, and any qualified set of
// verified shares reconstructs G(N)^s by interpolation in the exponent.
// Nobody learns anything about coin N before a qualified set releases
// shares — under the DDH assumption the coin is unpredictable — and
// invalid shares from corrupted parties are detected by the proofs
// (robustness).
package coin

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sintra/internal/adversary"
	"sintra/internal/dleq"
	"sintra/internal/group"
	"sintra/internal/sharing"
)

// Errors reported by the scheme.
var (
	// ErrInvalidShare is returned for coin shares whose proof fails.
	ErrInvalidShare = errors.New("coin: invalid coin share")
	// ErrNotReady is returned when combining before a qualified set of
	// shares is available.
	ErrNotReady = errors.New("coin: not enough verified shares")
	// ErrWrongParty is returned when a share is presented for an ID the
	// sender does not own.
	ErrWrongParty = errors.New("coin: share id not owned by sender")
)

// Params is the public part of a coin dealing, identical on every party.
type Params struct {
	// GroupName selects the group parameters.
	GroupName string
	// Structure is the deployment's adversary structure.
	Structure *adversary.Structure
	// VerifyKeys holds g^{s_id} for every share ID of the access formula.
	VerifyKeys []*group.Point

	g      group.Group
	scheme *sharing.Scheme
}

// SecretKey is party i's private coin key: its shares of the master secret.
type SecretKey struct {
	// Party is the owner's index.
	Party int
	// Shares are the owner's atomic shares.
	Shares []sharing.Share
}

// Share is one released coin share with its validity proof.
type Share struct {
	// Party is the sender.
	Party int
	// ID is the share ID the value corresponds to.
	ID int
	// Value is G(name)^{s_ID}.
	Value *group.Point
	// Proof shows log_g(VerifyKeys[ID]) = log_{G(name)}(Value).
	Proof *dleq.Proof
}

// Deal generates a fresh coin key for the given structure, returning the
// public parameters and each party's secret key.
func Deal(g group.Group, st *adversary.Structure, rnd io.Reader) (*Params, []*SecretKey, error) {
	scheme, err := sharing.ForStructure(g, st)
	if err != nil {
		return nil, nil, fmt.Errorf("coin: %w", err)
	}
	secret, err := g.RandomScalar(rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("coin: %w", err)
	}
	shares, err := scheme.Deal(secret, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("coin: %w", err)
	}
	params := &Params{
		GroupName:  g.Name(),
		Structure:  st,
		VerifyKeys: scheme.VerificationKeys(shares),
		g:          g,
		scheme:     scheme,
	}
	keys := make([]*SecretKey, st.N())
	for i := range keys {
		keys[i] = &SecretKey{Party: i}
	}
	for _, sh := range shares {
		keys[sh.Party].Shares = append(keys[sh.Party].Shares, sh)
	}
	return params, keys, nil
}

// Init rebuilds the runtime caches after deserialization.
func (p *Params) Init() error {
	g, err := group.ByName(p.GroupName)
	if err != nil {
		return err
	}
	scheme, err := sharing.ForStructure(g, p.Structure)
	if err != nil {
		return err
	}
	if len(p.VerifyKeys) != scheme.NumShares() {
		return errors.New("coin: verification key count mismatch")
	}
	p.g = g
	p.scheme = scheme
	p.Precompute()
	return nil
}

// Precompute registers fixed-base exponentiation tables for the dealt
// verification keys: every DLEQ share verification exponentiates each
// key, and the dealing lives for the whole deployment. Init calls this;
// Deal-created params may call it explicitly.
func (p *Params) Precompute() {
	for _, vk := range p.VerifyKeys {
		p.g.Precompute(vk)
	}
}

// Group returns the group of the dealing.
func (p *Params) Group() group.Group { return p.g }

// Qualified reports whether the party set can reconstruct coins under
// the dealing's secret-sharing access structure. Asymmetric deployments
// check every observer's quorums against this predicate at setup
// (trust.Asymmetric.CompatibleWithAccess) so gated combiners cannot
// starve.
func (p *Params) Qualified(parties adversary.Set) bool { return p.scheme.Qualified(parties) }

// base derives the coin-specific generator G(name).
func (p *Params) base(name string) *group.Point {
	return p.g.HashToPoint("sintra/coin/base", []byte(name))
}

func proofContext(name string, id int) string {
	return fmt.Sprintf("coin|%s|%d", name, id)
}

// ReleaseShares produces the owner's coin shares for the named coin.
func (p *Params) ReleaseShares(sk *SecretKey, name string, rnd io.Reader) ([]Share, error) {
	base := p.base(name)
	out := make([]Share, 0, len(sk.Shares))
	for _, sh := range sk.Shares {
		value := p.g.Exp(base, sh.Value)
		st := dleq.Statement{
			G1: p.g.Generator(), H1: p.VerifyKeys[sh.ID],
			G2: base, H2: value,
		}
		proof, err := dleq.Prove(p.g, st, sh.Value, proofContext(name, sh.ID), rnd)
		if err != nil {
			return nil, fmt.Errorf("coin: %w", err)
		}
		out = append(out, Share{Party: sk.Party, ID: sh.ID, Value: value, Proof: proof})
	}
	return out, nil
}

// VerifyShare checks one coin share against the public parameters.
func (p *Params) VerifyShare(name string, sh Share) error {
	if sh.ID < 0 || sh.ID >= len(p.VerifyKeys) {
		return ErrInvalidShare
	}
	owner, err := p.scheme.PartyOf(sh.ID)
	if err != nil || owner != sh.Party {
		return ErrWrongParty
	}
	// The share value is the only statement element taken from the
	// network: check its group membership here, then mark the statement
	// trusted — generator, dealt verification key, and locally derived
	// base need no re-check.
	if !p.g.IsElement(sh.Value) {
		return ErrInvalidShare
	}
	st := dleq.Statement{
		G1: p.g.Generator(), H1: p.VerifyKeys[sh.ID],
		G2: p.base(name), H2: sh.Value,
		Trusted: true,
	}
	if err := dleq.Verify(p.g, st, sh.Proof, proofContext(name, sh.ID)); err != nil {
		return ErrInvalidShare
	}
	return nil
}

// Value is a combined coin outcome; it exposes the derived randomness in
// the forms the protocols need.
type Value struct {
	digest [32]byte
}

// Bit returns a uniform bit of the coin.
func (v Value) Bit() bool { return v.digest[0]&1 == 1 }

// Uint64 returns 64 uniform bits of the coin.
func (v Value) Uint64() uint64 { return binary.BigEndian.Uint64(v.digest[8:16]) }

// Index returns a near-uniform index in [0, n) for leader election.
func (v Value) Index(n int) int {
	if n <= 0 {
		return 0
	}
	return int(v.Uint64() % uint64(n))
}

// Bytes returns the full 32-byte coin digest.
func (v Value) Bytes() []byte { return append([]byte(nil), v.digest[:]...) }

// Combiner accumulates verified coin shares for one named coin until a
// qualified set is present, then reconstructs the coin value.
type Combiner struct {
	params  *Params
	name    string
	values  map[int]*group.Point
	parties adversary.Set
	gate    func(adversary.Set) bool
}

// NewCombiner starts collecting shares for the named coin.
func NewCombiner(p *Params, name string) *Combiner {
	return &Combiner{params: p, name: name, values: make(map[int]*group.Point)}
}

// SetGate installs an additional readiness predicate over the set of
// parties whose shares back the coin: Ready and Value then require the
// contributing parties to satisfy the gate on top of the sharing
// scheme's qualification. Asymmetric-trust deployments pass
// trust.CoinGate so a party only accepts a coin value vouched for by
// one of its own quorums; a nil gate (the default) keeps the access
// structure as the only condition. Must be set before shares arrive.
func (c *Combiner) SetGate(gate func(adversary.Set) bool) { c.gate = gate }

func (c *Combiner) gateOpen(parties adversary.Set) bool {
	return c.gate == nil || c.gate(parties)
}

// Add verifies and stores a coin share. Adding a second share for the same
// ID is a no-op. Invalid shares are rejected with ErrInvalidShare and do
// not affect progress (robustness).
func (c *Combiner) Add(sh Share) error {
	if _, ok := c.values[sh.ID]; ok {
		return nil
	}
	if err := c.params.VerifyShare(c.name, sh); err != nil {
		return err
	}
	c.values[sh.ID] = sh.Value
	c.parties = c.parties.Add(sh.Party)
	return nil
}

// AddFrom adds the shares that party from sent and reports whether one
// failed its check. A share naming another party is skipped unchecked,
// and the first failure ends the list: an honest party sends neither, so
// one message costs at most one failed proof.
func (c *Combiner) AddFrom(from int, shares []Share) (rejected bool) {
	for _, sh := range shares {
		if sh.Party == from && c.Add(sh) != nil {
			return true
		}
	}
	return false
}

// AddVerified stores a coin share that the caller has already checked
// with VerifyShare, skipping re-verification; the protocols use AddFrom, and
// AddVerified lets a benchmark time the combine alone. Duplicates are
// ignored.
func (c *Combiner) AddVerified(sh Share) {
	if _, ok := c.values[sh.ID]; ok {
		return
	}
	c.values[sh.ID] = sh.Value
	c.parties = c.parties.Add(sh.Party)
}

// partiesWithAllShares returns the parties for which every owned share has
// been verified; interpolation plans may pick any owned share of a listed
// party, so partial parties must not be offered to the plan.
func (c *Combiner) partiesWithAllShares() adversary.Set {
	var out adversary.Set
	for _, party := range c.parties.Members() {
		complete := true
		for _, id := range c.params.scheme.SharesOf(party) {
			if _, ok := c.values[id]; !ok {
				complete = false
				break
			}
		}
		if complete {
			out = out.Add(party)
		}
	}
	return out
}

// Ready reports whether a qualified set of shares has been collected
// (and, with a gate installed, whether the contributing parties pass it).
func (c *Combiner) Ready() bool {
	parties := c.partiesWithAllShares()
	return c.params.scheme.Qualified(parties) && c.gateOpen(parties)
}

// Value reconstructs the coin once Ready; it is deterministic in the coin
// name and independent of which qualified subset supplied the shares.
func (c *Combiner) Value() (Value, error) {
	parties := c.partiesWithAllShares()
	if !c.params.scheme.Qualified(parties) || !c.gateOpen(parties) {
		return Value{}, ErrNotReady
	}
	g0, err := c.params.scheme.ReconstructExponent(parties, c.values)
	if err != nil {
		return Value{}, fmt.Errorf("coin: %w", err)
	}
	var v Value
	h := sha256.New()
	h.Write([]byte("sintra/coin/value"))
	h.Write([]byte(c.name))
	h.Write(c.params.g.EncodeElement(g0))
	h.Sum(v.digest[:0])
	return v, nil
}
