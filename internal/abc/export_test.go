package abc

import (
	"crypto/sha256"

	"sintra/internal/identity"
	"sintra/internal/wire"
)

// Test hooks: what a Byzantine proposer, or a test that pins one step of
// the by-reference machinery, needs from inside the package.

// MaxProposalEntries is the receiver-side bound on entries per proposal.
const MaxProposalEntries = maxProposalEntries

// SignProposal signs p the way its proposer would.
func (a *ABC) SignProposal(key *identity.Key, p *SignedProposal) {
	var digests [][32]byte
	for _, m := range p.Batch {
		digests = append(digests, sha256.Sum256(m))
	}
	for i := 0; i+sha256.Size <= len(p.Refs); i += sha256.Size {
		digests = append(digests, [32]byte(p.Refs[i:]))
	}
	p.Sig = key.Sign("abc-prop", a.signStatement(p, digests))
}

// ListValue encodes proposals as the agreement value a round decides on.
func ListValue(proposals ...SignedProposal) []byte {
	return wire.MustMarshalBody(proposalList{Proposals: proposals})
}

// Hold puts a payload into the store without queueing it, as a FETCH
// answer would. Dispatch goroutine only.
func (a *ABC) Hold(payload []byte) {
	a.store[sha256.Sum256(payload)] = &held{payload: payload, expire: a.round.Load() + storeLag}
}

// ValidList evaluates the current round's external-validity predicate on
// a value that from stands behind. Dispatch goroutine only.
func (a *ABC) ValidList(value []byte, from int) bool {
	return a.validList(a.round.Load(), value, from)
}

// Decide hands the current round a decided value. Dispatch goroutine only.
func (a *ABC) Decide(value []byte) { a.onDecide(a.round.Load(), value) }

// StoreSize is the number of store entries. Dispatch goroutine only.
func (a *ABC) StoreSize() int { return len(a.store) }
