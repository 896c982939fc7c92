//go:build !race

package evmd

const raceEnabled = false
