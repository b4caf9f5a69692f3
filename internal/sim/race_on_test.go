//go:build race

package sim

// raceEnabled reports a race-detector build, whose instrumentation
// adds allocations that make heap byte counts meaningless.
const raceEnabled = true
