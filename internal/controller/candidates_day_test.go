package controller_test

import (
	"slices"
	"testing"

	"autoglobe/internal/service"
	"autoglobe/internal/simulator"
)

// TestCandidateSetsMatchScanOverPaperDay runs a seed-1 full-mobility
// paper day at 1.15× users and, after every minute in which the
// deployment or the set of protected hosts changed and after every 60th
// minute, asks the placement index and the full-scan reference for the
// candidate hosts of every instance under every action that needs a
// target: the two sets must be equal. The day's own decisions move
// instances and protect hosts, so the index is checked across the
// mutations and expiries a real run makes.
func TestCandidateSetsMatchScanOverPaperDay(t *testing.T) {
	cfg := simulator.PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = 24
	sim, err := simulator.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dep, ctl := sim.Deployment(), sim.Controller()
	mutated := false
	dep.Watch(func(string) { mutated = true })
	actions := []service.Action{
		service.ActionScaleOut, service.ActionScaleUp, service.ActionScaleDown,
		service.ActionMove, service.ActionStart,
	}
	var protected, prev []string
	checked, nonEmpty := 0, 0
	for m := 0; m < cfg.Hours*60; m++ {
		if err := sim.Step(m); err != nil {
			t.Fatal(err)
		}
		q := m + 1 // the minute the next decisions see
		protected = protected[:0]
		for _, h := range dep.Cluster().Names() {
			if ctl.HostProtected(h, q) {
				protected = append(protected, h)
			}
		}
		changed := mutated || !slices.Equal(protected, prev)
		prev, protected = protected, prev
		mutated = false
		if !changed && m%60 != 0 {
			continue
		}
		checked++
		for _, inst := range dep.Instances() {
			for _, a := range actions {
				idx := ctl.IndexCandidates(a, inst.Service, inst.ID, q)
				scan := ctl.ScanCandidates(a, inst.Service, inst.ID, q)
				if !slices.Equal(idx, scan) {
					t.Fatalf("minute %d: %s of %s: index offers %v, full scan %v", q, a, inst.ID, idx, scan)
				}
				if len(idx) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if len(ctl.Events()) == 0 || nonEmpty == 0 {
		t.Fatalf("%d events, %d non-empty candidate sets over %d checked minutes: the comparison is vacuous",
			len(ctl.Events()), nonEmpty, checked)
	}
	t.Logf("%d checked minutes, %d non-empty candidate sets", checked, nonEmpty)
}
