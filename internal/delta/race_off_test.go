//go:build !race

package delta

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
