//go:build race

package autoglobe_test

// raceEnabled reports that the race detector is active; the surface
// check skips itself, since it only type-checks the tree.
const raceEnabled = true
