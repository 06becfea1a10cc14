//go:build race

package codec

// raceEnabled reports whether the race detector is compiled in. Allocation
// gates skip under it: race instrumentation adds shadow allocations that
// AllocsPerRun counts against the gate.
const raceEnabled = true
