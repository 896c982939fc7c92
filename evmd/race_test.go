//go:build race

package evmd

// raceEnabled reports a -race build, whose shadow memory and bookkeeping
// make heap measurements meaningless.
const raceEnabled = true
