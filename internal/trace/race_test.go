//go:build race

package trace

// raceEnabled reports a -race build, in which sync.Pool drops a random
// share of the items it is handed.
const raceEnabled = true
