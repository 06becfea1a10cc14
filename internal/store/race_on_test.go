//go:build race

package store

// raceEnabled reports whether the race detector is compiled in. The race
// runtime adds its own allocations, so byte gates skip under it.
const raceEnabled = true
