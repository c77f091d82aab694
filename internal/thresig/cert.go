package thresig

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"sintra/internal/adversary"
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
// generality (see DESIGN.md, substitution 2).
type CertScheme struct {
	// InstanceTag domain-separates this instance.
	InstanceTag string
	// Structure is the deployment's adversary structure.
	Structure *adversary.Structure
	// OpenRule selects the opening condition.
	OpenRule Rule
	// PubKeys holds each party's Ed25519 public key.
	PubKeys [][]byte
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
	if sk == nil || len(sk.Ed25519Seed) != ed25519.SeedSize || sk.Party < 0 || sk.Party >= len(s.PubKeys) {
		return Share{}, ErrWrongKey
	}
	priv := ed25519.NewKeyFromSeed(sk.Ed25519Seed)
	if !bytes.Equal(priv.Public().(ed25519.PublicKey), s.PubKeys[sk.Party]) {
		return Share{}, ErrWrongKey
	}
	return Share{Party: sk.Party, Data: ed25519.Sign(priv, s.frame(msg))}, nil
}

// VerifyShare checks one party's signature.
func (s *CertScheme) VerifyShare(msg []byte, sh Share) error {
	if sh.Party < 0 || sh.Party >= len(s.PubKeys) || len(sh.Data) != ed25519.SignatureSize {
		return ErrInvalidShare
	}
	if !ed25519.Verify(s.PubKeys[sh.Party], s.frame(msg), sh.Data) {
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
//	count:uint16, then count × (party:uint16, sig:64 bytes)
//
// sorted by party for a canonical encoding.
func (s *CertScheme) Combine(msg []byte, shares []Share) ([]byte, error) {
	sig, _, err := s.combine(msg, shares)
	return sig, err
}

func (s *CertScheme) combine(msg []byte, shares []Share) ([]byte, []int, error) {
	byParty := make(map[int][]byte, len(shares))
	var parties adversary.Set
	var bad []int
	for i, sh := range shares {
		if _, ok := byParty[sh.Party]; ok {
			continue
		}
		if err := s.VerifyShare(msg, sh); err != nil {
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
	members := parties.Members()
	sort.Ints(members)
	out := make([]byte, 2, 2+len(members)*(2+ed25519.SignatureSize))
	binary.BigEndian.PutUint16(out, uint16(len(members)))
	for _, p := range members {
		var pb [2]byte
		binary.BigEndian.PutUint16(pb[:], uint16(p))
		out = append(out, pb[:]...)
		out = append(out, byParty[p]...)
	}
	return out, bad, nil
}

// Verify checks a certificate: every signature valid, parties distinct,
// and the signer set satisfies the opening rule.
func (s *CertScheme) Verify(msg []byte, sig []byte) error {
	if len(sig) < 2 {
		return ErrInvalidSignature
	}
	count := int(binary.BigEndian.Uint16(sig[:2]))
	rest := sig[2:]
	if len(rest) != count*(2+ed25519.SignatureSize) {
		return ErrInvalidSignature
	}
	framed := s.frame(msg)
	var parties adversary.Set
	for i := 0; i < count; i++ {
		off := i * (2 + ed25519.SignatureSize)
		p := int(binary.BigEndian.Uint16(rest[off : off+2]))
		if p >= len(s.PubKeys) || parties.Has(p) {
			return ErrInvalidSignature
		}
		sigBytes := rest[off+2 : off+2+ed25519.SignatureSize]
		if !ed25519.Verify(s.PubKeys[p], framed, sigBytes) {
			return ErrInvalidSignature
		}
		parties = parties.Add(p)
	}
	if !s.Sufficient(parties) {
		return ErrInvalidSignature
	}
	return nil
}
