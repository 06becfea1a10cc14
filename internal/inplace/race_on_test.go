//go:build race

package inplace

// raceEnabled reports whether the race detector is compiled in. The race
// runtime drops a share of sync.Pool puts at random, so gates that count
// on pool reuse skip under it.
const raceEnabled = true
