//go:build !race

package optimizer

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a share of what it is given, so a pooled search can
// allocate its scratch again and the allocation counts do not hold.
const raceEnabled = false
