package core

import (
	"sintra/internal/abc"
	"sintra/internal/wire"
)

// The Merkle leaf of an answer and the statement a replica threshold-signs
// once per ordered round, for tests that forge a share on another root.
var (
	AnswerStatement = answerStatement
	RootStatement   = rootStatement
)

// AnswerRound is the Round an answer's signature names: the sequence
// numbers of the answers under its root, given the answer's own.
func AnswerRound(seq int64, sig []byte) abc.Round {
	var p answerProof
	_ = wire.UnmarshalBody(sig, &p) // verified by the caller
	first := seq - int64(p.Index)
	return abc.Round{First: first, End: first + int64(p.Count)}
}
