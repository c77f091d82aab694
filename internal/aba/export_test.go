package aba

// RoundStates is the number of rounds the instance holds state for
// (dispatch goroutine only).
func (a *ABA) RoundStates() int { return len(a.rounds) }

// LookAhead is the look-ahead window in rounds.
const LookAhead = lookAhead
