//go:build !race

package obs

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
