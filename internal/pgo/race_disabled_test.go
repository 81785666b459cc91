//go:build !race

package pgo

const raceEnabled = false
