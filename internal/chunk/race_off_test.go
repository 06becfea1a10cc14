//go:build !race

package chunk

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
