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
// keys an AES-GCM payload encryption; the ciphertext carries a Fiat-Shamir
// proof of knowledge (the û/ē/f̄ components of TDH2) binding it to its
// label, and decryption shares carry DLEQ validity proofs (robustness).
// Key shares are dealt with the linear secret sharing scheme of the
// deployment's adversary structure, so generalized Q³ structures are
// supported exactly as the paper's §4.2 prescribes.
package threnc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"sintra/internal/adversary"
	"sintra/internal/dleq"
	"sintra/internal/group"
	"sintra/internal/sharing"
)

// Errors reported by the cryptosystem.
var (
	// ErrInvalidCiphertext is returned for ciphertexts whose consistency
	// proof fails (chosen-ciphertext rejection).
	ErrInvalidCiphertext = errors.New("threnc: invalid ciphertext")
	// ErrInvalidShare is returned for decryption shares that fail to verify.
	ErrInvalidShare = errors.New("threnc: invalid decryption share")
	// ErrNotReady is returned when decrypting before a qualified share set
	// is available.
	ErrNotReady = errors.New("threnc: not enough verified decryption shares")
	// ErrWrongParty is returned when a share is presented for an ID the
	// sender does not own.
	ErrWrongParty = errors.New("threnc: share id not owned by sender")
)

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

	g      group.Group
	gbar   *group.Point
	scheme *sharing.Scheme
}

// SecretKey is a party's shares of the decryption exponent.
type SecretKey struct {
	// Party is the owner's index.
	Party int
	// Shares are the owner's atomic key shares.
	Shares []sharing.Share
}

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

// Share is a decryption share with its validity proof.
type Share struct {
	// Party is the sender.
	Party int
	// ID is the key-share ID.
	ID int
	// Value is U^{x_ID}.
	Value *group.Point
	// Proof shows log_g VerifyKeys[ID] = log_U Value.
	Proof *dleq.Proof
}

// Deal generates a fresh key pair for the structure, returning the public
// parameters and each party's secret key.
func Deal(g group.Group, st *adversary.Structure, rnd io.Reader) (*Params, []*SecretKey, error) {
	scheme, err := sharing.ForStructure(g, st)
	if err != nil {
		return nil, nil, fmt.Errorf("threnc: %w", err)
	}
	x, err := g.RandomScalar(rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("threnc: %w", err)
	}
	shares, err := scheme.Deal(x, rnd)
	if err != nil {
		return nil, nil, fmt.Errorf("threnc: %w", err)
	}
	p := &Params{
		GroupName:  g.Name(),
		Structure:  st,
		PubKey:     g.BaseExp(x),
		VerifyKeys: scheme.VerificationKeys(shares),
		g:          g,
		gbar:       gbarOf(g),
		scheme:     scheme,
	}
	keys := make([]*SecretKey, st.N())
	for i := range keys {
		keys[i] = &SecretKey{Party: i}
	}
	for _, sh := range shares {
		keys[sh.Party].Shares = append(keys[sh.Party].Shares, sh)
	}
	return p, keys, nil
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
		return errors.New("threnc: verification key count mismatch")
	}
	p.g = g
	p.gbar = gbarOf(g)
	p.scheme = scheme
	p.Precompute()
	return nil
}

// Precompute registers fixed-base exponentiation tables for the bases
// every TDH2 operation exponentiates: the second generator ḡ (ciphertext
// consistency checks), the public key (encryption), and the dealt
// verification keys (decryption-share DLEQ checks). Init calls this;
// Deal-created params may call it explicitly.
func (p *Params) Precompute() {
	p.g.Precompute(p.gbar)
	p.g.Precompute(p.PubKey)
	for _, vk := range p.VerifyKeys {
		p.g.Precompute(vk)
	}
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
	var lb [8]byte
	for _, part := range [][]byte{payload, label} {
		for i := 0; i < 8; i++ {
			lb[i] = byte(uint64(len(part)) >> (8 * (7 - i)))
		}
		h.Write(lb[:])
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

func shareContext(ct *Ciphertext, id int) string {
	return fmt.Sprintf("tdh2share|%s|%d", ctxDigest(ct.Payload, ct.Label), id)
}

// DecryptShares produces the owner's decryption shares for a ciphertext,
// verifying the ciphertext first.
func (p *Params) DecryptShares(sk *SecretKey, ct *Ciphertext, rnd io.Reader) ([]Share, error) {
	if err := p.VerifyCiphertext(ct); err != nil {
		return nil, err
	}
	return p.decryptShares(sk, ct, rnd)
}

// decryptShares is DecryptShares for a ciphertext already verified.
func (p *Params) decryptShares(sk *SecretKey, ct *Ciphertext, rnd io.Reader) ([]Share, error) {
	out := make([]Share, 0, len(sk.Shares))
	for _, sh := range sk.Shares {
		value := p.g.Exp(ct.U, sh.Value)
		st := dleq.Statement{
			G1: p.g.Generator(), H1: p.VerifyKeys[sh.ID],
			G2: ct.U, H2: value,
		}
		proof, err := dleq.Prove(p.g, st, sh.Value, shareContext(ct, sh.ID), rnd)
		if err != nil {
			return nil, fmt.Errorf("threnc: %w", err)
		}
		out = append(out, Share{Party: sk.Party, ID: sh.ID, Value: value, Proof: proof})
	}
	return out, nil
}

// VerifyShare checks one decryption share against a ciphertext.
func (p *Params) VerifyShare(ct *Ciphertext, sh Share) error {
	if sh.ID < 0 || sh.ID >= len(p.VerifyKeys) {
		return ErrInvalidShare
	}
	owner, err := p.scheme.PartyOf(sh.ID)
	if err != nil || owner != sh.Party {
		return ErrWrongParty
	}
	// The share value is the only statement element not already
	// validated: the verification key is dealt, and ct.U passed
	// VerifyCiphertext before any share of it is checked.
	if !p.g.IsElement(sh.Value) {
		return ErrInvalidShare
	}
	st := dleq.Statement{
		G1: p.g.Generator(), H1: p.VerifyKeys[sh.ID],
		G2: ct.U, H2: sh.Value,
		Trusted: true,
	}
	if err := dleq.Verify(p.g, st, sh.Proof, shareContext(ct, sh.ID)); err != nil {
		return ErrInvalidShare
	}
	return nil
}

// Combiner accumulates verified decryption shares for one ciphertext.
type Combiner struct {
	params  *Params
	ct      *Ciphertext
	values  map[int]*group.Point
	parties adversary.Set
}

// NewCombiner verifies a ciphertext and starts collecting shares for it.
func NewCombiner(p *Params, ct *Ciphertext) (*Combiner, error) {
	if err := p.VerifyCiphertext(ct); err != nil {
		return nil, err
	}
	return &Combiner{params: p, ct: ct, values: make(map[int]*group.Point)}, nil
}

// Shares produces the owner's decryption shares for the combiner's
// ciphertext, which NewCombiner verified.
func (c *Combiner) Shares(sk *SecretKey, rnd io.Reader) ([]Share, error) {
	return c.params.decryptShares(sk, c.ct, rnd)
}

// Add verifies and stores a decryption share; invalid shares are rejected
// and duplicates ignored.
func (c *Combiner) Add(sh Share) error {
	if _, ok := c.values[sh.ID]; ok {
		return nil
	}
	if err := c.params.VerifyShare(c.ct, sh); err != nil {
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

// AddVerified stores a decryption share the caller has already checked
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

// Ready reports whether a qualified set of shares has been collected.
func (c *Combiner) Ready() bool {
	return c.params.scheme.Qualified(c.partiesWithAllShares())
}

// Decrypt reconstructs h^r in the exponent and opens the payload.
func (c *Combiner) Decrypt() ([]byte, error) {
	parties := c.partiesWithAllShares()
	if !c.params.scheme.Qualified(parties) {
		return nil, ErrNotReady
	}
	hr, err := c.params.scheme.ReconstructExponent(parties, c.values)
	if err != nil {
		return nil, fmt.Errorf("threnc: %w", err)
	}
	plain, err := open(c.params.kdf(hr)[:32], c.ct.Payload)
	if err != nil {
		return nil, fmt.Errorf("threnc: open payload: %w", err)
	}
	return plain, nil
}
