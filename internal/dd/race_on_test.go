//go:build race

package dd

// raceEnabled reports a race-detector build, whose instrumentation
// and sync.Pool behavior (it drops pooled items at random) make heap
// byte counts meaningless.
const raceEnabled = true
