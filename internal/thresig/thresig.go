// Package thresig implements robust threshold signatures, the primitive
// the paper's architecture uses to compress protocol messages to constant
// size and to let replicated services answer with a single service
// signature (Cachin, DSN 2001, §2.1, §5.1).
//
// Two schemes are provided behind one interface:
//
//   - RSAScheme — Shoup's practical threshold RSA signatures
//     (EUROCRYPT 2000): non-interactive, robust (shares carry validity
//     proofs), with constant-size combined signatures. It requires a plain
//     k-out-of-n opening rule: the answer key a client checks (t+1).
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
// Consumers combine shares before checking any proof (the package-level
// Combine): a combined RSA signature that verifies under the public key
// is a valid signature whoever contributed, so the share proofs are
// checked only when a combine fails, one share at a time with
// VerifyShare, to name the culprits. An RSA share is its value x_i and
// the proof (c, z); the check recomputes the proof's commitments.
package thresig

import (
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
	// share x_i and its proof (c, z).
	Data []byte
}

// Combine assembles a signature on msg from shares nobody has verified
// and returns the indexes of the invalid shares it found; a signature it
// returns verifies, whoever contributed. CertScheme checks each share as
// it combines. RSAScheme combines first and, only when that fails,
// checks every share with VerifyShare and combines the rest if they
// still suffice.
func Combine(s Scheme, msg []byte, shares []Share) (sig []byte, bad []int, err error) {
	if cs, ok := s.(*CertScheme); ok {
		return cs.combine(msg, shares)
	}
	if sig, err = s.Combine(msg, shares); err == nil {
		return sig, nil, nil
	}
	for i, sh := range shares {
		if s.VerifyShare(msg, sh) != nil {
			bad = append(bad, i)
		}
	}
	if bad == nil {
		return nil, nil, err
	}
	sig, err = s.Combine(msg, Without(shares, bad))
	return sig, bad, err
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
	// VerifyShare checks a single share (robustness).
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
