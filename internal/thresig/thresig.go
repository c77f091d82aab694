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
//     k-out-of-n opening rule, so it serves threshold deployments.
//
//   - CertScheme — a qualified-set certificate of Ed25519 signatures,
//     validated against an arbitrary generalized adversary structure. It
//     has the same unforgeability and robustness semantics (a certificate
//     exists iff a rule-satisfying set signed) at the cost of non-constant
//     signature size. It serves generalized-structure deployments, as
//     documented in DESIGN.md.
//
// Both schemes domain-separate instances with a Tag, so a share released
// for one protocol role can never be replayed in another.
package thresig

import (
	"errors"
	"io"

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
	// Data is the scheme-specific share encoding.
	Data []byte
	// Aux carries optional batch-verification material — for RSAScheme
	// the proof commitments (v', x') that VerifyShare otherwise
	// recomputes. Per-share verification and Combine ignore it, and
	// Data keeps its exact legacy encoding; an empty Aux makes the batch
	// check fall back to per-share verification.
	Aux []byte
}

// BatchVerifier is implemented by schemes that can check many shares
// on one message with a single folded product test, returning the
// indexes of the invalid shares (nil when all verify).
type BatchVerifier interface {
	BatchVerifyShares(msg []byte, shares []Share) []int
}

// BatchVerify checks every share on msg, taking the scheme's batch
// path when it has one and falling back to per-share verification
// otherwise, so callers can batch unconditionally.
func BatchVerify(s Scheme, msg []byte, shares []Share) []int {
	if bv, ok := s.(BatchVerifier); ok {
		return bv.BatchVerifyShares(msg, shares)
	}
	var bad []int
	for i, sh := range shares {
		if s.VerifyShare(msg, sh) != nil {
			bad = append(bad, i)
		}
	}
	return bad
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
	// Combine assembles a full signature from verified shares; shares
	// from duplicate parties are ignored.
	Combine(msg []byte, shares []Share) ([]byte, error)
	// Verify checks a combined signature.
	Verify(msg []byte, sig []byte) error
}
