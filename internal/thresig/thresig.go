// Package thresig implements robust threshold signatures, the primitive
// the paper's architecture uses to compress protocol messages to constant
// size and to let replicated services answer with a single service
// signature (Cachin, DSN 2001, §2.1, §5.1).
//
// Two schemes are provided behind one interface:
//
//   - RSAScheme — Shoup's practical threshold RSA signatures
//     (EUROCRYPT 2000): non-interactive, constant-size combined
//     signatures, shares without proofs. It requires a plain k-out-of-n
//     opening rule: the answer key a client checks (t+1).
//
//   - CertScheme — a qualified-set certificate of Ed25519 signatures,
//     validated against an arbitrary generalized adversary structure. It
//     has the same unforgeability and robustness semantics (a certificate
//     exists iff a rule-satisfying set signed) at the cost of non-constant
//     signature size. It is every deployment's quorum key, which only
//     replicas check, and the answer key of generalized structures.
//
// Both schemes domain-separate instances with a Tag, so a share released
// for one protocol role can never be replayed in another.
//
// Consumers combine shares before checking any (the package-level
// Combine): a combined RSA signature that verifies under the public key
// is the signature, whoever contributed, and an RSA share is its value
// alone, so wrong shares are found by combining subsets (DESIGN.md,
// substitution 9). Certificate entries are checked as they are combined,
// except a party's own (Own).
package thresig

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"io"
	"sync/atomic"

	"sintra/internal/adversary"
)

// Errors shared by the schemes.
var (
	// ErrInvalidShare is returned for signature shares that fail to verify.
	ErrInvalidShare = errors.New("thresig: invalid signature share")
	// ErrInvalidSignature is returned for combined signatures that fail.
	ErrInvalidSignature = errors.New("thresig: invalid signature")
	// ErrInsufficient is returned by Combine when the shares do not meet
	// the opening rule.
	ErrInsufficient = errors.New("thresig: insufficient shares")
	// ErrWrongKey is returned when a secret key does not belong to the
	// scheme it is used with.
	ErrWrongKey = errors.New("thresig: secret key does not match scheme")
)

// Share is one party's signature share on a message.
type Share struct {
	// Party is the signer.
	Party int
	// Data is the scheme-specific share encoding: for RSAScheme the
	// share x_i, for CertScheme an Ed25519 signature.
	Data []byte
}

// Combine assembles a signature on msg from shares nobody has verified:
// one call of a fresh Combiner.
func Combine(s Scheme, msg []byte, shares []Share) (sig []byte, bad []int, err error) {
	return new(Combiner).Combine(s, msg, shares, Own{})
}

// Own is a share this party made and the message it signed. A
// certificate entry that is byte for byte this share, at its party and
// for this very message, is taken without a check; every other entry is
// checked in full. The zero Own matches nothing.
type Own struct {
	Msg   []byte
	Share Share
}

// covers reports whether data, party p's entry on msg, is the own share.
func (o *Own) covers(p int, msg, data []byte) bool {
	return o.Share.Party == p && len(data) > 0 && bytes.Equal(o.Share.Data, data) && bytes.Equal(o.Msg, msg)
}

// A Combiner combines the shares on one message as they arrive, each
// call given every share held so far, one per party and the same each
// call. It returns only a signature that verifies, whoever contributed,
// and the ascending indexes of the invalid shares it found. CertScheme
// checks each entry but own's; RSAScheme never combines a subset an
// earlier call tried (RSAScheme.combine). Zero is ready for one message.
type Combiner struct {
	tried adversary.Set // parties all of whose RSA K-subsets failed
}

// Combine combines shares on msg, taking own's entry unchecked.
func (c *Combiner) Combine(s Scheme, msg []byte, shares []Share, own Own) (sig []byte, bad []int, err error) {
	switch s := s.(type) {
	case *CertScheme:
		return s.combine(msg, shares, own)
	case *RSAScheme:
		return s.combine(msg, shares, &c.tried)
	}
	sig, err = s.Combine(msg, shares)
	return sig, nil, err
}

// VerifyOwn is s.Verify taking the party's own entry unchecked.
func VerifyOwn(s Scheme, msg, sig []byte, own Own) error {
	if cs, ok := s.(*CertScheme); ok {
		return cs.verify(msg, sig, own)
	}
	return s.Verify(msg, sig)
}

// Without returns a new slice of the shares whose indexes are not in
// bad, which is ascending (as Combine returns it).
func Without(shares []Share, bad []int) []Share {
	rest := make([]Share, 0, len(shares))
	for i, sh := range shares {
		if len(bad) > 0 && bad[0] == i {
			bad = bad[1:]
			continue
		}
		rest = append(rest, sh)
	}
	return rest
}

// SecretKey is a party's signing key for either scheme. Exactly one of the
// scheme-specific fields is set; the struct is gob-friendly so the dealer
// can ship it in a config file.
type SecretKey struct {
	// Party is the owner.
	Party int
	// RSAShare is the Shoup share of the RSA exponent (RSAScheme only).
	RSAShare []byte
	// Ed25519Seed is the Ed25519 private seed (CertScheme only).
	Ed25519Seed []byte
	ed25519     atomic.Pointer[ed25519.PrivateKey] // derived from Ed25519Seed on first use
}

// Scheme is the public side of a threshold signature scheme, identical on
// every party and on clients.
type Scheme interface {
	// Tag returns the instance's domain-separation tag.
	Tag() string
	// SignShare produces the calling party's share on msg.
	SignShare(sk *SecretKey, msg []byte, rnd io.Reader) (Share, error)
	// VerifyShare checks a single share: in full for CertScheme, only
	// its encoding and range for RSAScheme, whose shares carry no proof.
	VerifyShare(msg []byte, sh Share) error
	// Sufficient reports whether shares from the given parties meet the
	// opening rule.
	Sufficient(parties adversary.Set) bool
	// Combine assembles a full signature from shares that need not be
	// verified and returns only one Verify accepts (RSAScheme checks the
	// result, CertScheme skips invalid shares); duplicates are ignored.
	Combine(msg []byte, shares []Share) ([]byte, error)
	// Verify checks a combined signature.
	Verify(msg []byte, sig []byte) error
}
