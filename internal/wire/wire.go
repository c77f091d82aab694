// Package wire defines the message envelope exchanged between parties and
// the schema-less codec (codec.go) used by both the in-process simulator
// (internal/netsim) and the TCP transport (internal/transport).
//
// Envelopes are routed by (Protocol, Instance): every protocol execution —
// one reliable broadcast, one binary agreement, one atomic broadcast round —
// has a unique instance tag, so a single pair of channels multiplexes the
// entire stack, exactly as the paper's modular protocol architecture
// prescribes (§3).
package wire

import "fmt"

// Format numbers the codec layout, the agreement value, the
// binary-agreement coin rule and the checkpointed bytes (1 was
// encoding/gob; 2 this codec with atomic broadcast agreeing on whole
// signed proposals; 3 on their digests; 4 with a round-1 coin fixed to 1;
// 5: no request split into frames, so a checkpoint is the service snapshot
// alone; 6: trial 1's leader is public, so multi-valued agreement tosses
// no coin and journals no leadcoin/1 slot in it; 7: a DLEQ proof is its
// challenge and response alone, so coin shares, decryption shares and
// TDH2 ciphertexts no longer carry the prover's two commitments).
// A replica refuses a peer whose transport hello, or a journal directory
// whose marker (wal.OpenJournal), names another format: neither decodes
// nor agrees across formats.
const Format = 7

// Message is the envelope routed between parties. Payload bytes must be
// treated as immutable once sent.
type Message struct {
	// From is the sender's party index (or a client index >= n).
	From int
	// To is the destination party index.
	To int
	// Protocol names the protocol layer, e.g. "rbc", "aba", "abc".
	Protocol string
	// Instance identifies one execution of the protocol.
	Instance string
	// Type is the message kind within the protocol, e.g. "ECHO".
	Type string
	// Payload is the encoded protocol-specific body (MarshalBody).
	Payload []byte
}

// Size returns the approximate wire size of the message in bytes, used by
// the simulator's traffic metrics.
func (m *Message) Size() int {
	return 16 + len(m.Protocol) + len(m.Instance) + len(m.Type) + len(m.Payload)
}

// String renders a compact description for logs and tests.
func (m *Message) String() string {
	return fmt.Sprintf("%s/%s %s %d→%d (%dB)", m.Protocol, m.Instance, m.Type, m.From, m.To, len(m.Payload))
}

// Transport moves envelopes for one local party. Implementations are the
// simulator endpoint and the TCP transport.
type Transport interface {
	// Self returns the local party index.
	Self() int
	// N returns the number of servers (clients have indices >= N).
	N() int
	// Send enqueues a message for asynchronous delivery.
	Send(msg Message)
	// Recv blocks for the next inbound message; ok is false after Close.
	Recv() (msg Message, ok bool)
	// Close shuts the transport down and unblocks Recv.
	Close() error
}

// EncodeMessage encodes a full envelope into one transport frame.
func EncodeMessage(m *Message) ([]byte, error) {
	return MarshalBody(m)
}

// DecodeMessage decodes a transport frame produced by EncodeMessage. Like
// UnmarshalBody it is safe on arbitrary attacker-supplied bytes.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	err := UnmarshalBody(data, &m)
	return m, err
}
