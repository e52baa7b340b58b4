//go:build race

package simulator

// raceEnabled reports that the race detector is active; the allocation
// guard skips itself, since instrumentation allocates.
const raceEnabled = true
