package core

// The Merkle leaf of an answer and the statement a replica threshold-signs
// once per ordered round, for tests that forge a share on another root.
var (
	AnswerStatement = answerStatement
	RootStatement   = rootStatement
)
