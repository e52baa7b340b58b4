//go:build race

package experiments

// raceEnabled reports that the race detector is active; the full Table 7
// sweep is skipped because race instrumentation makes it too slow.
const raceEnabled = true
