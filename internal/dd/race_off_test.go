//go:build !race

package dd

const raceEnabled = false
