package simulator

import "testing"

// TestPlacementIndexByteIdentical pins that the feasibility index is an
// access-path change only: a paper day decided through the incremental
// index and through the full-scan reference path (the pre-index
// candidateHosts behavior) diverges in no decision, trigger tally or
// load sample.
func TestPlacementIndexByteIdentical(t *testing.T) {
	base, err := paperSim(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	res, err := paperSim(t, func(c *Config) {
		c.Controller.DisablePlacementIndex = true
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "full-scan candidate enumeration")
}
