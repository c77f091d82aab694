// Package dleq implements non-interactive Chaum-Pedersen proofs of
// discrete-logarithm equality, made non-interactive with the Fiat-Shamir
// transform in the random-oracle model.
//
// A proof convinces a verifier that log_{g1}(h1) = log_{g2}(h2) without
// revealing the common exponent. These proofs provide the "validity proof"
// attached to coin shares in the threshold coin-tossing scheme and to
// decryption shares in the TDH2 threshold cryptosystem, making both schemes
// robust: invalid shares from corrupted servers are detected immediately
// (Cachin, DSN 2001, §2.1).
//
// The package is backend-agnostic: statements and proofs are built from
// opaque group.Point/group.Scalar values and verify identically over the
// Z_p* and P-256 backends.
package dleq

import (
	"errors"
	"fmt"
	"io"

	"sintra/internal/group"
)

// ErrInvalidProof is returned by Verify for proofs that do not check out.
var ErrInvalidProof = errors.New("dleq: invalid proof")

// Proof is a (challenge, response) Chaum-Pedersen proof.
type Proof struct {
	// C is the Fiat-Shamir challenge.
	C *group.Scalar
	// Z is the prover's response.
	Z *group.Scalar
}

// Statement captures the public values of a DLEQ claim:
// log_{G1}(H1) = log_{G2}(H2).
type Statement struct {
	G1, H1, G2, H2 *group.Point

	// Trusted asserts that all four elements are already known to lie
	// in the prime-order group — dealt verification keys, locally
	// derived bases, or wire values the caller has validated itself.
	// Verify then skips its four membership checks, which for the Z_p*
	// backend otherwise cost as much as the exponentiations. Soundness
	// depends on the assertion: never set Trusted for values taken from
	// the network without an explicit IsElement check.
	Trusted bool
}

// Prove generates a proof that h1 = g1^x and h2 = g2^x for the given
// secret exponent x. The context string binds the proof to its use site
// (protocol, instance, party) so proofs cannot be replayed elsewhere.
func Prove(g group.Group, st Statement, x *group.Scalar, context string, rnd io.Reader) (*Proof, error) {
	w, err := g.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("dleq: %w", err)
	}
	a1 := g.Exp(st.G1, w)
	a2 := g.Exp(st.G2, w)
	c := challenge(g, st, a1, a2, context)
	// z = w + c*x mod q
	z := g.AddScalar(w, g.MulScalar(c, x))
	return &Proof{C: c, Z: z}, nil
}

// Verify checks a proof against the statement and context. A base with a
// fixed-base table takes it: the generator on every backend, and on Z_p*
// the dealt verification keys (see Group.Precompute); other bases take
// the variable-base path. Marking the statement Trusted additionally
// skips the four membership checks. The protocols verify only shares
// that other parties released.
func Verify(g group.Group, st Statement, p *Proof, context string) error {
	if p == nil || !g.IsScalar(p.C) || !g.IsScalar(p.Z) {
		return ErrInvalidProof
	}
	if !st.Trusted {
		for _, e := range []*group.Point{st.G1, st.H1, st.G2, st.H2} {
			if !g.IsElement(e) {
				return ErrInvalidProof
			}
		}
	}
	// a1 = g1^z / h1^c = g1^z · h1^(-c), and likewise a2: one
	// simultaneous double exponentiation per equation, no inverse.
	negC := g.NegScalar(p.C)
	a1 := g.MulExp(st.G1, p.Z, st.H1, negC)
	a2 := g.MulExp(st.G2, p.Z, st.H2, negC)
	if !challenge(g, st, a1, a2, context).Equal(p.C) {
		return ErrInvalidProof
	}
	return nil
}

// verifySlow is the unoptimised verification path — strict re-decode
// membership checks, two divisions, four independent exponentiations —
// kept as the before/after baseline for BenchmarkDLEQVerify and as a
// cross-check oracle in tests.
func verifySlow(g group.Group, st Statement, p *Proof, context string) error {
	if p == nil || !g.IsScalar(p.C) || !g.IsScalar(p.Z) {
		return ErrInvalidProof
	}
	for _, e := range []*group.Point{st.G1, st.H1, st.G2, st.H2} {
		if e == nil {
			return ErrInvalidProof
		}
		if _, err := g.DecodeElement(g.EncodeElement(e)); err != nil {
			return ErrInvalidProof
		}
	}
	a1 := g.Div(g.Exp(st.G1, p.Z), g.Exp(st.H1, p.C))
	a2 := g.Div(g.Exp(st.G2, p.Z), g.Exp(st.H2, p.C))
	if !challenge(g, st, a1, a2, context).Equal(p.C) {
		return ErrInvalidProof
	}
	return nil
}

func challenge(g group.Group, st Statement, a1, a2 *group.Point, context string) *group.Scalar {
	return g.HashToScalar("sintra/dleq/"+context,
		g.EncodeElement(st.G1), g.EncodeElement(st.H1),
		g.EncodeElement(st.G2), g.EncodeElement(st.H2),
		g.EncodeElement(a1), g.EncodeElement(a2),
	)
}
