//go:build !race

package web

const raceEnabled = false
