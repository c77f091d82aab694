package mvba

// TrialStates is the number of trials the instance holds state for
// (dispatch goroutine only).
func (m *MVBA) TrialStates() int { return len(m.trials) }

// LookAhead is the look-ahead window in trials.
const LookAhead = lookAhead
