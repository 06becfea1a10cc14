//go:build !race

package inplace

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
