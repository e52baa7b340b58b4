package spec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"autoglobe/internal/service"
	"autoglobe/internal/workload"
)

const sampleXML = `<?xml version="1.0"?>
<landscape name="sample">
  <servers>
    <server name="Blade1" category="BX300" performanceIndex="1" cpus="1" clockMHz="933" cacheKB="512" memoryMB="2048" swapMB="2048" tempMB="1024"/>
    <server name="DBServer1" category="BL40p" performanceIndex="9" cpus="4" clockMHz="2800" cacheKB="2048" memoryMB="12288" swapMB="12288" tempMB="1024"/>
  </servers>
  <services>
    <service name="FI" type="interactive" subsystem="ERP" minInstances="1" memoryMBPerInstance="1024" baseLoad="0.05" usersPerUnit="150" requestWeight="0.8" users="150">
      <allowedActions>
        <action>scaleIn</action>
        <action>scaleOut</action>
      </allowedActions>
      <instances>
        <instance host="Blade1"/>
      </instances>
    </service>
    <service name="DB-ERP" type="database" subsystem="ERP" minInstances="1" maxInstances="1" exclusive="true" minPerformanceIndex="5" memoryMBPerInstance="8192">
      <instances>
        <instance host="DBServer1"/>
      </instances>
    </service>
  </services>
  <rulebases>
    <rulebase trigger="serviceOverloaded">
      <rule>IF cpuLoad IS high THEN scaleOut IS applicable</rule>
      <rule>IF cpuLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable</rule>
    </rulebase>
    <rulebase trigger="serviceOverloaded" service="FI">
      <rule>IF cpuLoad IS medium THEN scaleOut IS applicable</rule>
    </rulebase>
  </rulebases>
</landscape>`

func TestParseSample(t *testing.T) {
	l, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name != "sample" || len(l.Servers) != 2 || len(l.Services) != 2 || len(l.RuleBases) != 2 {
		t.Fatalf("parsed landscape = %+v", l)
	}
	if l.Servers[1].PerformanceIndex != 9 {
		t.Errorf("DBServer1 PI = %g", l.Servers[1].PerformanceIndex)
	}
	if got := l.Services[0].AllowedActions; len(got) != 2 || got[0] != "scaleIn" {
		t.Errorf("FI actions = %v", got)
	}
	if !l.Services[1].Exclusive {
		t.Error("DB-ERP should be exclusive")
	}
}

func TestBuildFromSample(t *testing.T) {
	l, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.BuildDeployment()
	if err != nil {
		t.Fatal(err)
	}
	if d.Cluster().Len() != 2 || d.Catalog().Len() != 2 {
		t.Fatalf("built %d hosts, %d services", d.Cluster().Len(), d.Catalog().Len())
	}
	fi, _ := d.Catalog().Get("FI")
	if !fi.Supports(service.ActionScaleOut) || fi.Supports(service.ActionMove) {
		t.Error("FI allowed actions mismatch")
	}
	insts := d.InstancesOf("FI")
	if len(insts) != 1 || insts[0].Host != "Blade1" || insts[0].Users != 150 {
		t.Errorf("FI instances = %+v", insts)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("built deployment invalid: %v", err)
	}
}

func TestParsedRuleBases(t *testing.T) {
	l, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	rbs, err := l.ParsedRuleBases()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rbs["serviceOverloaded"]); got != 2 {
		t.Errorf("default rule base has %d rules, want 2", got)
	}
	if got := len(rbs["serviceOverloaded/FI"]); got != 1 {
		t.Errorf("FI-specific rule base has %d rules, want 1", got)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct{ name, xml string }{
		{"duplicate server", `<landscape><servers><server name="a" performanceIndex="1" cpus="1" memoryMB="1"/><server name="a" performanceIndex="1" cpus="1" memoryMB="1"/></servers></landscape>`},
		{"duplicate service", `<landscape><services><service name="s" type="batch"/><service name="s" type="batch"/></services></landscape>`},
		{"bad type", `<landscape><services><service name="s" type="weird"/></services></landscape>`},
		{"bad action", `<landscape><services><service name="s" type="batch"><allowedActions><action>fly</action></allowedActions></service></services></landscape>`},
		{"unknown host", `<landscape><services><service name="s" type="batch"><instances><instance host="ghost"/></instances></service></services></landscape>`},
		{"bad rule", `<landscape><rulebases><rulebase trigger="t"><rule>IF broken</rule></rulebase></rulebases></landscape>`},
		{"rulebase no trigger", `<landscape><rulebases><rulebase><rule>IF a IS b THEN c IS d</rule></rulebase></rulebases></landscape>`},
		{"rulebase unknown service", `<landscape><rulebases><rulebase trigger="t" service="ghost"><rule>IF a IS b THEN c IS d</rule></rulebase></rulebases></landscape>`},
	}
	for _, c := range cases {
		if _, err := ParseString(c.xml); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestParseMalformedXML(t *testing.T) {
	if _, err := ParseString("<landscape><unclosed>"); err == nil {
		t.Fatal("malformed XML accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	l1, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	text := l1.String()
	l2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse of encoded landscape failed: %v\n%s", err, text)
	}
	if l2.String() != text {
		t.Error("encode → parse → encode is not a fixed point")
	}
}

// TestPaperLandscapeSpec exports the paper landscape to XML, re-imports
// it, and checks the rebuilt deployment is equivalent.
func TestPaperLandscapeSpec(t *testing.T) {
	for _, m := range []service.Mobility{service.Static, service.ConstrainedMobility, service.FullMobility} {
		l, err := Paper(m, 1.0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(l.Servers) != 19 || len(l.Services) != 12 {
			t.Fatalf("%v: %d servers, %d services", m, len(l.Servers), len(l.Services))
		}
		l2, err := ParseString(l.String())
		if err != nil {
			t.Fatalf("%v: round trip: %v", m, err)
		}
		d, err := l2.BuildDeployment()
		if err != nil {
			t.Fatalf("%v: rebuild: %v", m, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: rebuilt deployment invalid: %v", m, err)
		}
		if got := d.UsersOf("LES"); math.Abs(got-900) > 1e-6 {
			t.Errorf("%v: rebuilt LES users = %g, want 900", m, got)
		}
		if got := d.CountOf("FI"); got != 3 {
			t.Errorf("%v: rebuilt FI instances = %d, want 3", m, got)
		}
	}
}

// TestTable5Table6Constraints asserts the scenario constraint encoding
// survives the XML round trip.
func TestTable5Table6Constraints(t *testing.T) {
	l, err := Paper(service.FullMobility, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ParseString(l.String())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := l2.BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	dbERP, _ := cat.Get("DB-ERP")
	if !dbERP.Exclusive || dbERP.MinPerfIndex != 5 {
		t.Error("DB-ERP constraints lost in round trip")
	}
	ci, _ := cat.Get("CI-ERP")
	if !ci.Supports(service.ActionMove) {
		t.Error("CI-ERP move capability lost in round trip")
	}
}

// TestSimulationSectionRoundTrip: the <simulation> section (profiles,
// tunables) survives encode → parse.
func TestSimulationSectionRoundTrip(t *testing.T) {
	l, err := Paper(service.FullMobility, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Simulation == nil || len(l.Simulation.Profiles) != 6 {
		t.Fatalf("paper landscape simulation section = %+v", l.Simulation)
	}
	l2, err := ParseString(l.String())
	if err != nil {
		t.Fatal(err)
	}
	if l2.Simulation == nil {
		t.Fatal("simulation section lost in round trip")
	}
	if l2.Simulation.Hours != 80 || l2.Simulation.UserRedistribution != "rebalance" {
		t.Errorf("simulation attrs = %+v", l2.Simulation)
	}
	if len(l2.Simulation.Profiles) != 6 {
		t.Fatalf("profiles = %d, want 6", len(l2.Simulation.Profiles))
	}
	for _, p := range l2.Simulation.Profiles {
		prof, err := p.BuildProfile()
		if err != nil {
			t.Fatalf("profile %s: %v", p.Service, err)
		}
		loaded := false
		for m := 0; m < workload.MinutesPerDay && !loaded; m++ {
			loaded = prof.At(m) > 0
		}
		if !loaded {
			t.Errorf("profile %s has no load", p.Service)
		}
	}
}

func TestSimulationValidation(t *testing.T) {
	base := `<landscape><services><service name="s" type="interactive"/></services>%s</landscape>`
	cases := []struct{ name, sim string }{
		{"bad redistribution", `<simulation userRedistribution="chaotic"/>`},
		{"profile for unknown service", `<simulation><profile service="ghost"><point minute="0" value="1"/></profile></simulation>`},
		{"duplicate profile", `<simulation><profile service="s"><point minute="0" value="1"/></profile><profile service="s"><point minute="0" value="1"/></profile></simulation>`},
		{"bad profile point", `<simulation><profile service="s"><point minute="-1" value="1"/></profile></simulation>`},
	}
	for _, c := range cases {
		if _, err := ParseString(fmt.Sprintf(base, c.sim)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A valid section passes.
	ok := `<simulation hours="10" multiplier="1.2" userRedistribution="sticky"><profile service="s"><point minute="0" value="0.5"/></profile></simulation>`
	if _, err := ParseString(fmt.Sprintf(base, ok)); err != nil {
		t.Errorf("valid simulation section rejected: %v", err)
	}
}

func TestEncodeContainsRuleDSL(t *testing.T) {
	l, err := ParseString(sampleXML)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(l.String(), "IF cpuLoad IS high THEN scaleOut IS applicable") {
		t.Error("encoded XML lost rule text")
	}
}
