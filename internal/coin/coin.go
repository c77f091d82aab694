// Package coin implements the robust threshold coin-tossing scheme used by
// the randomized Byzantine agreement protocol of Cachin, Kursawe, and Shoup
// ("Random oracles in Constantinople", PODC 2000), referenced throughout
// the paper as the source of "arbitrarily many unpredictable random bits"
// (§2.1, §3).
//
// The coin is the threshold-exponent step of internal/sharing with a
// coin-specific base: a coin with name N releases the dealt secret s in
// the exponent of G(N), a hash of N onto the group, under the proof
// context "coin|N", and its value is a hash of N and the combined G(N)^s.
// Nobody learns anything about coin N before a qualified set releases
// shares — under the DDH assumption the coin is unpredictable — and
// invalid shares from corrupted parties are detected by the proofs
// (robustness).
package coin

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"sintra/internal/adversary"
	"sintra/internal/group"
	"sintra/internal/sharing"
)

// ErrNotReady is returned when combining before a qualified set of shares
// is available.
var ErrNotReady = sharing.ErrNotReady

// Params is the public part of a coin dealing, identical on every party.
type Params struct {
	// GroupName selects the group parameters.
	GroupName string
	// Structure is the deployment's adversary structure.
	Structure *adversary.Structure
	// VerifyKeys holds g^{s_id} for every share ID of the access formula.
	VerifyKeys []*group.Point

	exp *sharing.Exponent
}

// SecretKey is party i's private coin key: its shares of the master secret.
type SecretKey = sharing.PartyKey

// Share is one released coin share G(name)^{s_ID} with its validity proof.
type Share = sharing.ExponentShare

// Deal generates a fresh coin key for the given structure, returning the
// public parameters, set up as Init sets up a loaded key, and each
// party's secret key.
func Deal(g group.Group, st *adversary.Structure, rnd io.Reader) (*Params, []*SecretKey, error) {
	exp, _, keys, err := sharing.DealExponent(g, st, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("coin: %w", err)
	}
	p := &Params{GroupName: g.Name(), Structure: st, VerifyKeys: exp.Keys()}
	return p, keys, p.Init()
}

// Init rebuilds the runtime caches after deserialization and registers
// fixed-base exponentiation tables for the verification keys.
func (p *Params) Init() error {
	g, err := group.ByName(p.GroupName)
	if err != nil {
		return err
	}
	if p.exp, err = sharing.NewExponent(g, p.Structure, p.VerifyKeys); err != nil {
		return fmt.Errorf("coin: %w", err)
	}
	p.exp.Precompute()
	return nil
}

// Group returns the group of the dealing.
func (p *Params) Group() group.Group { return p.exp.Group() }

// Qualified reports whether the party set can reconstruct coins under
// the dealing's secret-sharing access structure. Asymmetric deployments
// check every observer's quorums against this predicate at setup
// (trust.Asymmetric.CompatibleWithAccess) so gated combiners cannot
// starve.
func (p *Params) Qualified(parties adversary.Set) bool { return p.exp.Qualified(parties) }

// base derives the coin-specific generator G(name).
func (p *Params) base(name string) *group.Point {
	return p.Group().HashToPoint("sintra/coin/base", []byte(name))
}

// shareContext binds a coin share's proof to the coin's name.
func shareContext(name string) string { return "coin|" + name }

// ReleaseShares produces the owner's coin shares for the named coin.
func (p *Params) ReleaseShares(sk *SecretKey, name string, rnd io.Reader) ([]Share, error) {
	return p.exp.Release(sk, p.base(name), shareContext(name), rnd)
}

// VerifyShare checks one coin share against the public parameters.
func (p *Params) VerifyShare(name string, sh Share) error {
	return p.exp.Verify(p.base(name), shareContext(name), sh)
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
// qualified set is present, then derives the coin value. Add, AddFrom,
// AddVerified, Ready and SetGate are the collector's.
type Combiner struct {
	*sharing.Collector
	params *Params
	name   string
}

// NewCombiner starts collecting shares for the named coin.
func NewCombiner(p *Params, name string) *Combiner {
	return &Combiner{Collector: p.exp.Collector(p.base(name), shareContext(name)), params: p, name: name}
}

// Value reconstructs the coin once Ready; it is deterministic in the coin
// name and independent of which qualified subset supplied the shares.
func (c *Combiner) Value() (Value, error) {
	g0, err := c.Combine()
	if err != nil {
		return Value{}, fmt.Errorf("coin: %w", err)
	}
	var v Value
	h := sha256.New()
	h.Write([]byte("sintra/coin/value"))
	h.Write([]byte(c.name))
	h.Write(c.params.Group().EncodeElement(g0))
	h.Sum(v.digest[:0])
	return v, nil
}
