//go:build race

package obs

// raceEnabled reports that the race detector is active; allocation
// guardrails are skipped because race instrumentation distorts the
// counts.
const raceEnabled = true
