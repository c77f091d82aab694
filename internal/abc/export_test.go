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

// ProposalDigest is the name an agreement value gives a proposal: the
// SHA-256 of its wire encoding.
func ProposalDigest(p SignedProposal) [32]byte { return sha256.Sum256(wire.MustMarshalBody(p)) }

// ListValue encodes the agreement value naming proposals.
func ListValue(proposals ...SignedProposal) []byte {
	var list proposalList
	for _, p := range proposals {
		list.Proposals = append(list.Proposals, ProposalDigest(p))
	}
	return wire.MustMarshalBody(list)
}

// DigestList encodes an agreement value naming arbitrary digests.
func DigestList(digests ...[32]byte) []byte {
	return wire.MustMarshalBody(proposalList{Proposals: digests})
}

// Hold puts a payload into the store without queueing it, as a FETCH
// answer would. Dispatch goroutine only.
func (a *ABC) Hold(payload []byte) {
	a.store[sha256.Sum256(payload)] = &held{payload: payload, expire: a.round.Load() + storeLag}
}

// HoldProposal puts a proposal's encoding into the store, as a FETCH
// answer would, without accepting it. Dispatch goroutine only.
func (a *ABC) HoldProposal(p SignedProposal) { a.Hold(wire.MustMarshalBody(p)) }

// ValidList evaluates the current round's external-validity predicate on
// a value that from stands behind. Dispatch goroutine only.
func (a *ABC) ValidList(value []byte, from int) bool {
	return a.validList(a.round.Load(), value, from)
}

// Decide hands the current round a decided value. Dispatch goroutine only.
func (a *ABC) Decide(value []byte) { a.onDecide(a.round.Load(), value) }

// PayloadEntries is the number of store entries, held or asked for, that
// are not a validly signed proposal. Dispatch goroutine only.
func (a *ABC) PayloadEntries() int {
	n := 0
	for _, e := range a.store {
		var p SignedProposal
		if wire.UnmarshalBody(e.payload, &p) != nil || a.check(p, e.payload, false) == nil {
			n++
		}
	}
	return n
}

// Holds reports whether the store holds payload's bytes. Dispatch
// goroutine only.
func (a *ABC) Holds(payload []byte) bool {
	e := a.store[sha256.Sum256(payload)]
	return e != nil && e.payload != nil
}
