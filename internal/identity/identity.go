// Package identity provides each party's individual digital signature
// identity (Ed25519). The broadcast protocols use individual signatures
// wherever evidence must be transferable beyond an authenticated link —
// most prominently the signed client requests that atomic broadcast
// proposes for agreement (paper §3: "every party digitally signs the
// message it proposes ... the external validity condition ensures that all
// messages in the decided list come with valid signatures").
package identity

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"sintra/internal/edverify"
)

// Errors reported by the registry.
var (
	// ErrBadSignature is returned when verification fails.
	ErrBadSignature = errors.New("identity: bad signature")
	// ErrUnknownParty is returned for out-of-range party indices.
	ErrUnknownParty = errors.New("identity: unknown party")
)

// Registry holds the public identity keys of all parties. It is part of
// the dealer's public output.
type Registry struct {
	// PubKeys[i] is party i's Ed25519 public key.
	PubKeys [][]byte
	tables  edverify.Cache // PubKeys[i]'s table, built on the first check under it
}

// Key is one party's private identity key.
type Key struct {
	// Party is the owner.
	Party int
	// Seed is the Ed25519 private seed.
	Seed []byte
	priv atomic.Pointer[ed25519.PrivateKey] // derived from Seed on first use
}

// Generate creates identity keys for n parties.
func Generate(n int, rnd io.Reader) (*Registry, []*Key, error) {
	reg := &Registry{PubKeys: make([][]byte, n)}
	keys := make([]*Key, n)
	for i := 0; i < n; i++ {
		pub, priv, err := ed25519.GenerateKey(rnd)
		if err != nil {
			return nil, nil, fmt.Errorf("identity: %w", err)
		}
		reg.PubKeys[i] = pub
		keys[i] = &Key{Party: i, Seed: priv.Seed()}
	}
	return reg, keys, nil
}

// N returns the number of registered parties.
func (r *Registry) N() int { return len(r.PubKeys) }

func frame(domain string, msg []byte) []byte {
	out := make([]byte, 0, len(domain)+len(msg)+20)
	out = append(out, "sintra/identity/"...)
	out = append(out, domain...)
	out = append(out, 0)
	return append(out, msg...)
}

// Sign produces the party's signature on msg under the given domain. The
// private key is derived from the seed on first use and kept.
func (k *Key) Sign(domain string, msg []byte) []byte {
	p := k.priv.Load()
	if p == nil || !bytes.Equal((*p)[:ed25519.SeedSize], k.Seed) {
		priv := ed25519.NewKeyFromSeed(k.Seed)
		k.priv.Store(&priv)
		p = &priv
	}
	return ed25519.Sign(*p, frame(domain, msg))
}

// Verify checks a party's signature on msg under the given domain.
func (r *Registry) Verify(party int, domain string, msg, sig []byte) error {
	if party < 0 || party >= len(r.PubKeys) {
		return ErrUnknownParty
	}
	if !r.tables.Verify(r.PubKeys, party, frame(domain, msg), sig) {
		return ErrBadSignature
	}
	return nil
}
