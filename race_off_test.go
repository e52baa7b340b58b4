//go:build !race

package autoglobe_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
