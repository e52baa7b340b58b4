package service

import (
	"fmt"
	"testing"

	"autoglobe/internal/cluster"
)

func TestActionNeedsTarget(t *testing.T) {
	withTarget := []Action{ActionScaleOut, ActionScaleUp, ActionScaleDown, ActionMove, ActionStart}
	without := []Action{ActionStop, ActionScaleIn, ActionIncreasePriority, ActionReducePriority}
	for _, a := range withTarget {
		if !a.NeedsTarget() {
			t.Errorf("%s should need a target host", a)
		}
	}
	for _, a := range without {
		if a.NeedsTarget() {
			t.Errorf("%s should not need a target host", a)
		}
	}
}

func TestActionsComplete(t *testing.T) {
	// Table 2 lists nine output actions.
	if got := len(Actions()); got != 9 {
		t.Fatalf("Actions() has %d entries, want 9 (Table 2)", got)
	}
	for _, a := range Actions() {
		if !a.Valid() {
			t.Errorf("action %q reported invalid", a)
		}
	}
	if Action("fly").Valid() {
		t.Error("unknown action reported valid")
	}
}

func TestServiceValidate(t *testing.T) {
	good := &Service{Name: "FI", Type: TypeInteractive, MinInstances: 1, MaxInstances: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid service rejected: %v", err)
	}
	bad := []*Service{
		{Type: TypeInteractive},    // no name
		{Name: "x", Type: "weird"}, // bad type
		{Name: "x", Type: TypeBatch, MinInstances: 5, MaxInstances: 2},
		{Name: "x", Type: TypeBatch, BaseLoad: 1.5},
		{Name: "x", Type: TypeBatch, MinPerfIndex: -1},
		{Name: "x", Type: TypeBatch, Allowed: map[Action]bool{"fly": true}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid service %+v accepted", i, s)
		}
	}
}

func TestServiceSupports(t *testing.T) {
	s := &Service{Name: "FI", Type: TypeInteractive, Allowed: actions(ActionScaleIn, ActionScaleOut)}
	if !s.Supports(ActionScaleOut) || s.Supports(ActionMove) {
		t.Error("Supports mismatch")
	}
	var static Service
	if static.Supports(ActionMove) {
		t.Error("zero-value service must support nothing")
	}
}

func TestCanRunOn(t *testing.T) {
	db := &Service{Name: "DB", Type: TypeDatabase, MinPerfIndex: 5}
	weak := cluster.Host{Name: "b", PerformanceIndex: 2}
	strong := cluster.Host{Name: "s", PerformanceIndex: 9}
	if db.CanRunOn(weak) {
		t.Error("database must not run on PI-2 host")
	}
	if !db.CanRunOn(strong) {
		t.Error("database must run on PI-9 host")
	}
}

func TestCatalog(t *testing.T) {
	c := MustCatalog(
		&Service{Name: "A", Type: TypeInteractive},
		&Service{Name: "B", Type: TypeBatch},
	)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get("A"); !ok {
		t.Error("A not found")
	}
	if got := c.ByType(TypeBatch); len(got) != 1 || got[0].Name != "B" {
		t.Errorf("ByType(batch) = %v", got)
	}
	if _, err := NewCatalog(&Service{Name: "A", Type: TypeBatch}, &Service{Name: "A", Type: TypeBatch}); err == nil {
		t.Error("duplicate service accepted")
	}
}

// TestPaperCatalogTable4 checks that the catalog plus Table 4 user counts
// and the Figure 11 allocation are mutually consistent: each service's
// baseline users exactly match the aggregate capacity
// (150 users × performance index) of its initially allocated hosts.
func TestPaperCatalogTable4(t *testing.T) {
	cl := cluster.Paper()
	users := PaperUsers()
	for svc, hosts := range PaperInitialAllocation() {
		want, interactive := users[svc]
		if !interactive {
			continue
		}
		var capacity float64
		for _, hn := range hosts {
			h, ok := cl.Host(hn)
			if !ok {
				t.Fatalf("allocation references unknown host %q", hn)
			}
			capacity += 150 * h.PerformanceIndex
		}
		if svc == "BW" {
			continue // BW is batch-driven; 60 is its job count, not a capacity
		}
		if capacity != want {
			t.Errorf("service %s: initial capacity %g != Table 4 users %g", svc, capacity, want)
		}
	}
}

// TestPaperCatalogScenarios checks the constraints of Tables 5 and 6.
func TestPaperCatalogScenarios(t *testing.T) {
	static := PaperCatalog(Static)
	for _, s := range static.All() {
		for _, a := range Actions() {
			if s.Supports(a) {
				t.Errorf("static scenario: %s supports %s", s.Name, a)
			}
		}
	}

	cm := PaperCatalog(ConstrainedMobility)
	fi, _ := cm.Get("FI")
	if !fi.Supports(ActionScaleIn) || !fi.Supports(ActionScaleOut) {
		t.Error("CM: FI must support scale-in and scale-out (Table 5)")
	}
	if fi.Supports(ActionMove) {
		t.Error("CM: FI must not support move (Table 5)")
	}
	if fi.MinInstances != 2 {
		t.Errorf("CM: FI min instances = %d, want 2", fi.MinInstances)
	}
	les, _ := cm.Get("LES")
	if les.MinInstances != 2 {
		t.Errorf("CM: LES min instances = %d, want 2", les.MinInstances)
	}
	dbERP, _ := cm.Get("DB-ERP")
	if !dbERP.Exclusive || dbERP.MinPerfIndex != 5 {
		t.Error("CM: DB-ERP must be exclusive with min perf index 5 (Table 5)")
	}
	for _, a := range Actions() {
		if dbERP.Supports(a) {
			t.Errorf("CM: DB-ERP supports %s, must be static", a)
		}
	}

	fm := PaperCatalog(FullMobility)
	fiFM, _ := fm.Get("FI")
	for _, a := range []Action{ActionScaleIn, ActionScaleOut, ActionScaleUp, ActionScaleDown, ActionMove} {
		if !fiFM.Supports(a) {
			t.Errorf("FM: FI must support %s (Table 6)", a)
		}
	}
	ciERP, _ := fm.Get("CI-ERP")
	for _, a := range []Action{ActionScaleUp, ActionScaleDown, ActionMove} {
		if !ciERP.Supports(a) {
			t.Errorf("FM: CI-ERP must support %s (Table 6)", a)
		}
	}
	if ciERP.Supports(ActionScaleOut) {
		t.Error("FM: CI-ERP must not support scale-out (it is a singleton)")
	}
	dbBW, _ := fm.Get("DB-BW")
	if !dbBW.Supports(ActionScaleOut) || !dbBW.Supports(ActionScaleIn) {
		t.Error("FM: DB-BW must support scale-in/scale-out (Table 6)")
	}
	if dbBW.MaxInstances < 2 {
		t.Error("FM: DB-BW must allow several instances")
	}
	dbERPFM, _ := fm.Get("DB-ERP")
	for _, a := range Actions() {
		if dbERPFM.Supports(a) {
			t.Errorf("FM: DB-ERP supports %s, must be static", a)
		}
	}
}

func TestMobilityString(t *testing.T) {
	if Static.String() != "static" || ConstrainedMobility.String() != "constrained mobility" ||
		FullMobility.String() != "full mobility" || Mobility(42).String() != "unknown" {
		t.Error("Mobility.String mismatch")
	}
}

func TestParseMobility(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mobility
	}{
		{"static", Static}, {"STATIC", Static},
		{"cm", ConstrainedMobility}, {"CM", ConstrainedMobility},
		{"constrained", ConstrainedMobility}, {"Constrained", ConstrainedMobility},
		{"fm", FullMobility}, {"Fm", FullMobility},
		{"full", FullMobility}, {"FULL", FullMobility},
	} {
		if got, err := ParseMobility(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseMobility(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"", "mobile", "full mobility", " fm"} {
		_, err := ParseMobility(in)
		if err == nil {
			t.Errorf("ParseMobility(%q) accepted an unknown scenario", in)
			continue
		}
		if want := fmt.Sprintf("service: unknown scenario %q (want static, cm or fm)", in); err.Error() != want {
			t.Errorf("ParseMobility(%q) error = %q, want %q", in, err, want)
		}
	}
}
