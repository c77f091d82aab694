package mvba

// LeaderCoinName is the name of the threshold coin that elects the leader
// of a trial: a test that holds the dealt keys can tell who will lead.
func LeaderCoinName(instance string, trial int) string {
	return (&MVBA{cfg: Config{Instance: instance}}).coinName(trial)
}
