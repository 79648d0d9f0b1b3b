//go:build race

package cluster

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of the items put into it.
const raceEnabled = true
