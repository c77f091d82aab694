package thresig

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"

	"sintra/internal/adversary"
	"sintra/internal/edverify"
)

// Rule names the opening condition of a CertScheme, expressed in terms of
// the deployment's adversary structure (paper §4.2 substitution rules).
type Rule string

// The supported opening rules.
const (
	// RuleQuorum requires signatures from a quorum (the n−t rule).
	RuleQuorum Rule = "quorum"
	// RuleCore requires signatures from a core set (the 2t+1 rule).
	RuleCore Rule = "core"
	// RuleHasHonest requires signatures from a set outside the adversary
	// structure (the t+1 rule).
	RuleHasHonest Rule = "honest"
	// RuleQualified requires signatures from a set qualified under the
	// secret-sharing access formula.
	RuleQualified Rule = "qualified"
)

// CertScheme is a threshold signature realized as a certificate: a set of
// individual Ed25519 signatures from enough parties to satisfy the opening
// rule under the adversary structure. It supports arbitrary generalized
// structures, trading the constant signature size of RSAScheme for full
// generality (see DESIGN.md, substitutions 2 and 8).
type CertScheme struct {
	// InstanceTag domain-separates this instance.
	InstanceTag string
	// Structure is the deployment's adversary structure.
	Structure *adversary.Structure
	// OpenRule selects the opening condition.
	OpenRule Rule
	// PubKeys holds each party's Ed25519 public key.
	PubKeys [][]byte
	tables  edverify.Cache // PubKeys[i]'s table, built on the first check under it
}

var _ Scheme = (*CertScheme)(nil)

// NewCertScheme generates fresh Ed25519 keys for every party and returns
// the public scheme plus the per-party secret keys.
func NewCertScheme(tag string, st *adversary.Structure, rule Rule, rnd io.Reader) (*CertScheme, []*SecretKey, error) {
	switch rule {
	case RuleQuorum, RuleCore, RuleHasHonest, RuleQualified:
	default:
		return nil, nil, fmt.Errorf("thresig: unknown rule %q", rule)
	}
	n := st.N()
	scheme := &CertScheme{
		InstanceTag: tag,
		Structure:   st,
		OpenRule:    rule,
		PubKeys:     make([][]byte, n),
	}
	keys := make([]*SecretKey, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rnd)
		if err != nil {
			return nil, nil, fmt.Errorf("thresig: %w", err)
		}
		scheme.PubKeys[i] = pub
		keys[i] = &SecretKey{Party: i, Ed25519Seed: priv.Seed()}
	}
	return scheme, keys, nil
}

// Tag returns the instance tag.
func (s *CertScheme) Tag() string { return s.InstanceTag }

// frame prefixes the message with the domain and instance tag.
func (s *CertScheme) frame(msg []byte) []byte {
	out := make([]byte, 0, len(s.InstanceTag)+len(msg)+24)
	out = append(out, "sintra/thresig/cert/"...)
	out = append(out, s.InstanceTag...)
	out = append(out, 0)
	return append(out, msg...)
}

// SignShare signs msg with the party's Ed25519 key.
func (s *CertScheme) SignShare(sk *SecretKey, msg []byte, _ io.Reader) (Share, error) {
	if sk == nil || sk.Party < 0 || sk.Party >= len(s.PubKeys) {
		return Share{}, ErrWrongKey
	}
	// The private key is derived from the seed once and kept: a derivation
	// costs a SHA-512 and a base-point multiplication.
	priv := sk.ed25519.Load()
	if priv == nil || !bytes.Equal((*priv)[:ed25519.SeedSize], sk.Ed25519Seed) {
		if len(sk.Ed25519Seed) != ed25519.SeedSize {
			return Share{}, ErrWrongKey
		}
		k := ed25519.NewKeyFromSeed(sk.Ed25519Seed)
		priv = &k
		sk.ed25519.Store(priv)
	}
	if !bytes.Equal((*priv)[ed25519.SeedSize:], s.PubKeys[sk.Party]) {
		return Share{}, ErrWrongKey
	}
	return Share{Party: sk.Party, Data: ed25519.Sign(*priv, s.frame(msg))}, nil
}

// VerifyShare checks one party's signature.
func (s *CertScheme) VerifyShare(msg []byte, sh Share) error {
	if sh.Party < 0 || sh.Party >= len(s.PubKeys) || len(sh.Data) != ed25519.SignatureSize {
		return ErrInvalidShare
	}
	if !s.tables.Verify(s.PubKeys, sh.Party, s.frame(msg), sh.Data) {
		return ErrInvalidShare
	}
	return nil
}

// Sufficient reports whether the parties satisfy the opening rule.
func (s *CertScheme) Sufficient(parties adversary.Set) bool {
	switch s.OpenRule {
	case RuleQuorum:
		return s.Structure.IsQuorum(parties)
	case RuleCore:
		return s.Structure.IsCore(parties)
	case RuleHasHonest:
		return s.Structure.HasHonest(parties)
	case RuleQualified:
		return s.Structure.Access.Eval(parties)
	default:
		return false
	}
}

// Combine concatenates the valid shares into a certificate once the
// opening rule is met, skipping invalid ones (combine also returns their
// indexes). The certificate layout is:
//
//	signers: ⌈n/8⌉ bytes, bit i%8 of byte i/8 set for party i
//	then one 64-byte signature per signer, in party order
//
// a canonical encoding of ⌈n/8⌉ bytes plus 64 per signer.
func (s *CertScheme) Combine(msg []byte, shares []Share) ([]byte, error) {
	sig, _, err := s.combine(msg, shares, Own{})
	return sig, err
}

func (s *CertScheme) combine(msg []byte, shares []Share, own Own) ([]byte, []int, error) {
	byParty := make(map[int][]byte, len(shares))
	var parties adversary.Set
	var bad []int
	for i, sh := range shares {
		if _, ok := byParty[sh.Party]; ok {
			continue
		}
		if !own.covers(sh.Party, msg, sh.Data) && s.VerifyShare(msg, sh) != nil {
			bad = append(bad, i) // robustness: skip invalid shares
			continue
		}
		byParty[sh.Party] = sh.Data
		parties = parties.Add(sh.Party)
		if s.Sufficient(parties) {
			break
		}
	}
	if !s.Sufficient(parties) {
		return nil, bad, ErrInsufficient
	}
	nb := s.signerBytes()
	var signers [8]byte
	binary.LittleEndian.PutUint64(signers[:], uint64(parties))
	out := append(make([]byte, 0, nb+parties.Count()*ed25519.SignatureSize), signers[:nb]...)
	for _, p := range parties.Members() {
		out = append(out, byParty[p]...)
	}
	return out, bad, nil
}

// signerBytes is the length of a certificate's signer bitmap.
func (s *CertScheme) signerBytes() int { return (len(s.PubKeys) + 7) / 8 }

// Verify checks a certificate: the signer set satisfies the opening rule
// and every signature is valid.
func (s *CertScheme) Verify(msg []byte, sig []byte) error { return s.verify(msg, sig, Own{}) }

// verify is Verify, taking the entry that is own unchecked (VerifyOwn).
func (s *CertScheme) verify(msg, sig []byte, own Own) error {
	nb := s.signerBytes()
	if len(sig) < nb {
		return ErrInvalidSignature
	}
	var signers [8]byte
	copy(signers[:], sig[:nb])
	parties := adversary.Set(binary.LittleEndian.Uint64(signers[:]))
	if parties.Minus(adversary.FullSet(len(s.PubKeys))) != adversary.EmptySet ||
		len(sig) != nb+parties.Count()*ed25519.SignatureSize || !s.Sufficient(parties) {
		return ErrInvalidSignature
	}
	framed := s.frame(msg)
	for i, p := range parties.Members() {
		entry := sig[nb+i*ed25519.SignatureSize:][:ed25519.SignatureSize]
		if !own.covers(p, msg, entry) && !s.tables.Verify(s.PubKeys, p, framed, entry) {
			return ErrInvalidSignature
		}
	}
	return nil
}
