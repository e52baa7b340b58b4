package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestTable7Golden pins the exact text `autoglobe-sim -table7 -seeds 3`
// prints: the three default sweeps, every point's overload, streak and
// action count. A change that moves one decision anywhere in the loop
// moves a line here. Running it with -cpu 1 as well shows that the
// parallel sweep assembles the same bytes as a single worker.
//
// To rewrite the file after a deliberate change:
//
//	TABLE7_UPDATE=1 go test -run '^TestTable7Golden$' ./internal/experiments
func TestTable7Golden(t *testing.T) {
	if raceEnabled {
		t.Skip("three full Table 7 sweeps are too slow under the race detector")
	}
	var sb strings.Builder
	for s := uint64(1); s <= 3; s++ {
		res, err := Table7(Table7Options{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "--- seed %d ---\n%s\n", s, res)
	}
	got := sb.String()
	const file = "testdata/table7.golden"
	if os.Getenv("TABLE7_UPDATE") == "1" {
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten", file)
		return
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("Table 7 moved at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("Table 7 has %d lines, want %d", len(gl), len(wl))
	}
}
