// Package core assembles the paper's architecture into a replicated
// trusted service (§5): deterministic state machines replicated on all
// servers, initialized to the same state, with client requests delivered
// by atomic broadcast (or secure causal atomic broadcast for confidential
// services) so every honest server performs the same sequence of
// operations.
//
// Clients send a request to all servers and accept an answer once servers
// that cannot all be corrupted (a set outside the adversary structure)
// returned the same result — the generalized form of the paper's
// "wait for 2t+1 values and take the majority". Each replica signs the
// answers of one ordered round at once: it threshold-signs the root of a
// Merkle tree over them, and each response carries that share plus the
// answer's branch. The client recovers the service's single signature on
// the root from the shares, so with the branch a certificate or notary
// receipt checks as one from a centralized service would.
package core

import (
	"fmt"

	"sintra/internal/thresig"
)

// Mode selects the request dissemination protocol of a service.
type Mode int

// Service modes.
const (
	// ModeAtomic delivers requests by plain atomic broadcast: total order,
	// request content visible to servers before ordering.
	ModeAtomic Mode = iota + 1
	// ModeSecureCausal delivers requests by secure causal atomic
	// broadcast: clients encrypt requests under the service key and
	// servers decrypt only after the order is fixed (input causality).
	ModeSecureCausal
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAtomic:
		return "atomic"
	case ModeSecureCausal:
		return "secure-causal"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// StateMachine is a deterministic replicated application. Apply is called
// with dense sequence numbers, in the same order with the same arguments
// on every honest server, and must be a pure function of the sequence of
// requests applied so far.
type StateMachine interface {
	// Apply executes one ordered request and returns the response sent
	// back to the client.
	Apply(seq int64, request []byte) (response []byte)
}

// Snapshotter is the optional state-transfer extension of StateMachine:
// services that implement it participate in checkpointing and can be
// caught up (or restarted) from a certified peer snapshot. Snapshot must
// be a deterministic encoding of the state — every honest replica at the
// same sequence number must produce byte-identical snapshots, since the
// checkpoint certificate signs their hash. Restore replaces the state
// wholesale with a decoded snapshot.
type Snapshotter interface {
	Snapshot() []byte
	Restore(snapshot []byte) error
}

// envelope is the unit a client submits and the replicas order: a
// request body, the client's correlation ID, and the client's own
// endpoint index, which every replica that applies the request answers.
// It is the body of a REQUEST message in plaintext for ModeAtomic, and
// inside a TDH2 ciphertext for ModeSecureCausal.
type envelope struct {
	ReqID  [16]byte
	Client int
	Body   []byte
}

// responseBody answers one request: the result, and the replica's share
// on the root of its round's answers with the answer's leaf Index among
// Count leaves and the Branch from the leaf to the root.
type responseBody struct {
	ReqID  [16]byte
	Seq    int64
	Result []byte
	Share  thresig.Share
	Index  int
	Count  int
	Branch [][32]byte
}

// answerProof is the encoding of Answer.Signature: the service's
// signature on a round's root statement and the answer's place under it.
type answerProof struct {
	Sig    []byte
	Index  int
	Count  int
	Branch [][32]byte
}

// clientProtocol is the wire protocol between clients and servers.
const clientProtocol = "client"

// Message types of the client protocol.
const (
	typeRequest  = "REQUEST"
	typeResponse = "RESPONSE"
)

// answerStatement is the Merkle leaf of one service answer.
func answerStatement(service string, reqID [16]byte, result []byte) []byte {
	out := make([]byte, 0, len(service)+len(result)+32)
	out = append(out, "svcresp|"...)
	out = append(out, service...)
	out = append(out, '|')
	out = append(out, reqID[:]...)
	out = append(out, '|')
	return append(out, result...)
}

// rootStatement is the byte string a replica threshold-signs once per
// ordered round: the root of the Merkle tree over the round's count answer
// statements. The "svcroot|" prefix separates it from checkpoint
// statements ("ckpt|"), which the same keys sign.
func rootStatement(service string, count int, root [32]byte) []byte {
	return fmt.Appendf(nil, "svcroot|%s|%d|%x", service, count, root)
}
