// Package threnc implements the TDH2 threshold cryptosystem of Shoup and
// Gennaro (EUROCRYPT '98): a threshold public-key encryption scheme secure
// against adaptive chosen-ciphertext attacks in the random-oracle model.
//
// The paper's architecture needs exactly this primitive for secure causal
// atomic broadcast (§3, §5.2): client requests are encrypted under the
// service's single public key and decrypted by the servers only after the
// ciphertext has been ordered, so that corrupted servers can neither read
// nor meaningfully replay a request before it is scheduled. CCA2 security
// is essential — without it the adversary could submit a related ciphertext
// and violate input causality (the notary front-running attack).
//
// The implementation is hybrid: TDH2 transports a KEM key h^r whose hash
// keys an AES-GCM payload encryption, and the ciphertext carries a
// Fiat-Shamir proof of knowledge (the û/ē/f̄ components of TDH2) binding it
// to its label. Decryption is the threshold-exponent step of
// internal/sharing with base U = g^r under the proof context
// "tdh2share|<ciphertext digest>": a qualified set of verified shares
// U^{x_id} interpolates h^r = U^x. Key shares are dealt with the linear
// secret sharing scheme of the deployment's adversary structure, so
// generalized Q³ structures are supported exactly as the paper's §4.2
// prescribes.
package threnc

import (
	"crypto/aes"
	"crypto/cipher"
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

// ErrInvalidCiphertext is returned for ciphertexts whose consistency proof
// fails (chosen-ciphertext rejection).
var ErrInvalidCiphertext = errors.New("threnc: invalid ciphertext")

// Params is the public key material, identical on every party and client.
type Params struct {
	// GroupName selects the group parameters.
	GroupName string
	// Structure is the deployment's adversary structure.
	Structure *adversary.Structure
	// PubKey is h = g^x.
	PubKey *group.Point
	// VerifyKeys holds g^{x_id} for every share ID of the access formula.
	VerifyKeys []*group.Point

	g    group.Group
	gbar *group.Point
	exp  *sharing.Exponent
}

// SecretKey is a party's shares of the decryption exponent.
type SecretKey = sharing.PartyKey

// Ciphertext is a TDH2 ciphertext.
type Ciphertext struct {
	// Payload is the AES-GCM encryption of the message.
	Payload []byte
	// Label is the public label bound to the ciphertext.
	Label []byte
	// U is g^r, Ubar is ḡ^r.
	U, Ubar *group.Point
	// Proof shows log_g U = log_ḡ Ubar, bound to Payload and Label.
	Proof *dleq.Proof
}

// Share is a decryption share U^{x_ID} with its validity proof.
type Share = sharing.ExponentShare

// Deal generates a fresh key pair for the structure, returning the public
// parameters and each party's secret key.
func Deal(g group.Group, st *adversary.Structure, rnd io.Reader) (*Params, []*SecretKey, error) {
	exp, pub, keys, err := sharing.DealExponent(g, st, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("threnc: %w", err)
	}
	p := &Params{GroupName: g.Name(), Structure: st, PubKey: pub, VerifyKeys: exp.Keys()}
	p.g, p.gbar, p.exp = g, gbarOf(g), exp
	return p, keys, nil
}

// Init rebuilds the runtime caches after deserialization and registers
// fixed-base exponentiation tables for the bases every TDH2 operation
// exponentiates: the second generator ḡ (ciphertext consistency checks),
// the public key (encryption) and the verification keys (share checks).
func (p *Params) Init() error {
	g, err := group.ByName(p.GroupName)
	if err != nil {
		return err
	}
	if p.exp, err = sharing.NewExponent(g, p.Structure, p.VerifyKeys); err != nil {
		return fmt.Errorf("threnc: %w", err)
	}
	p.g, p.gbar = g, gbarOf(g)
	g.Precompute(p.gbar)
	g.Precompute(p.PubKey)
	p.exp.Precompute()
	return nil
}

// Group returns the group of the dealing.
func (p *Params) Group() group.Group { return p.g }

// gbarOf derives the second, independent generator ḡ.
func gbarOf(g group.Group) *group.Point {
	return g.HashToPoint("sintra/threnc/gbar", []byte(g.Name()))
}

// ctxDigest binds proofs to the full public ciphertext content.
func ctxDigest(payload, label []byte) string {
	h := sha256.New()
	h.Write([]byte("sintra/threnc/ctx"))
	for _, part := range [][]byte{payload, label} {
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(len(part))))
		h.Write(part)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// kdf derives the AES key from the KEM element.
func (p *Params) kdf(hr *group.Point) []byte {
	h := sha256.New()
	h.Write([]byte("sintra/threnc/kdf"))
	h.Write(p.g.EncodeElement(hr))
	return h.Sum(nil)
}

// seal encrypts m under the KEM-derived key. The key is unique per
// encryption (fresh r), so a fixed nonce is safe.
func seal(key, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return gcm.Seal(nil, make([]byte, gcm.NonceSize()), plaintext, nil), nil
}

func open(key, ciphertext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return gcm.Open(nil, make([]byte, gcm.NonceSize()), ciphertext, nil)
}

// Encrypt produces a TDH2 ciphertext of the message under the label.
func (p *Params) Encrypt(message, label []byte, rnd io.Reader) (*Ciphertext, error) {
	r, err := p.g.RandomScalar(rnd)
	if err != nil {
		return nil, fmt.Errorf("threnc: %w", err)
	}
	u := p.g.BaseExp(r)
	ubar := p.g.Exp(p.gbar, r)
	payload, err := seal(p.kdf(p.g.Exp(p.PubKey, r))[:32], message)
	if err != nil {
		return nil, fmt.Errorf("threnc: %w", err)
	}
	st := dleq.Statement{G1: p.g.Generator(), H1: u, G2: p.gbar, H2: ubar}
	proof, err := dleq.Prove(p.g, st, r, "tdh2|"+ctxDigest(payload, label), rnd)
	if err != nil {
		return nil, fmt.Errorf("threnc: %w", err)
	}
	return &Ciphertext{
		Payload: payload,
		Label:   append([]byte(nil), label...),
		U:       u,
		Ubar:    ubar,
		Proof:   proof,
	}, nil
}

// VerifyCiphertext checks the ciphertext's consistency proof. Every party
// must reject invalid ciphertexts before producing decryption shares —
// this check is what makes the scheme CCA2 secure.
func (p *Params) VerifyCiphertext(ct *Ciphertext) error {
	if ct == nil || ct.U == nil || ct.Ubar == nil {
		return ErrInvalidCiphertext
	}
	if !p.g.IsElement(ct.U) || !p.g.IsElement(ct.Ubar) {
		return ErrInvalidCiphertext
	}
	// U and Ubar were just membership-checked and the generators are
	// local, so the statement is trusted: Verify skips re-checking.
	st := dleq.Statement{G1: p.g.Generator(), H1: ct.U, G2: p.gbar, H2: ct.Ubar, Trusted: true}
	if err := dleq.Verify(p.g, st, ct.Proof, "tdh2|"+ctxDigest(ct.Payload, ct.Label)); err != nil {
		return ErrInvalidCiphertext
	}
	return nil
}

// shareContext binds a decryption share's proof to the ciphertext.
func shareContext(ct *Ciphertext) string {
	return "tdh2share|" + ctxDigest(ct.Payload, ct.Label)
}

// DecryptShares produces the owner's decryption shares for a ciphertext,
// verifying the ciphertext first.
func (p *Params) DecryptShares(sk *SecretKey, ct *Ciphertext, rnd io.Reader) ([]Share, error) {
	if err := p.VerifyCiphertext(ct); err != nil {
		return nil, err
	}
	return p.exp.Release(sk, ct.U, shareContext(ct), rnd)
}

// VerifyShare checks one decryption share against a ciphertext that
// passed VerifyCiphertext.
func (p *Params) VerifyShare(ct *Ciphertext, sh Share) error {
	return p.exp.Verify(ct.U, shareContext(ct), sh)
}

// Combiner accumulates verified decryption shares for one ciphertext.
// Add, AddFrom, AddVerified and Ready are the collector's.
type Combiner struct {
	*sharing.Collector
	params  *Params
	ct      *Ciphertext
	context string
}

// NewCombiner verifies a ciphertext and starts collecting shares for it.
func NewCombiner(p *Params, ct *Ciphertext) (*Combiner, error) {
	if err := p.VerifyCiphertext(ct); err != nil {
		return nil, err
	}
	context := shareContext(ct)
	return &Combiner{Collector: p.exp.Collector(ct.U, context), params: p, ct: ct, context: context}, nil
}

// Shares produces the owner's decryption shares for the combiner's
// ciphertext, which NewCombiner verified.
func (c *Combiner) Shares(sk *SecretKey, rnd io.Reader) ([]Share, error) {
	return c.params.exp.Release(sk, c.ct.U, c.context, rnd)
}

// Decrypt reconstructs h^r in the exponent and opens the payload.
func (c *Combiner) Decrypt() ([]byte, error) {
	hr, err := c.Combine()
	if err != nil {
		return nil, fmt.Errorf("threnc: %w", err)
	}
	plain, err := open(c.params.kdf(hr)[:32], c.ct.Payload)
	if err != nil {
		return nil, fmt.Errorf("threnc: open payload: %w", err)
	}
	return plain, nil
}
