//go:build race

package optimizer

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
