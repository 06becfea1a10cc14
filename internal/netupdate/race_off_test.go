//go:build !race

package netupdate

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
