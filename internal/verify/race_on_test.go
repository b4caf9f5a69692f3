//go:build race

package verify

// raceEnabled reports a race-detector build, whose instrumentation
// adds allocations and makes sync.Pool drop a random share of the
// arrays handed to it, so heap byte counts are meaningless.
const raceEnabled = true
