//go:build !race

package codec

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
