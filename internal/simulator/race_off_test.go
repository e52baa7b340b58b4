//go:build !race

package simulator

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
