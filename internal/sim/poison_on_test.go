//go:build ddpoison

package sim

// ddPoison reports the use-after-collection detector build (see
// internal/dd/poison_on.go). It collects at every GCWatermark check
// and allocates a fresh node for every swept one, so the collection
// schedule, the counters that follow from it and heap byte counts are
// not those of the normal build.
const ddPoison = true
