package simulator

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"autoglobe/internal/controller"
	"autoglobe/internal/obs"
	"autoglobe/internal/rules"
	"autoglobe/internal/service"
)

// paperSim0 is paperSim without the fatal-on-error wrapping, for tests
// that expect the build itself to fail.
func paperSim0(adjust func(*Config)) (*Simulator, error) {
	cfg := PaperConfig(service.FullMobility, 1.15)
	cfg.Hours = 24
	if adjust != nil {
		adjust(&cfg)
	}
	return New(cfg)
}

// swapDefaults pushes fresh compilations of the default rule sources
// through the registry and into the controller — semantically identical
// bases, brand-new pointers.
func swapDefaults(t *testing.T, ctl *controller.Controller) {
	t.Helper()
	reg := rules.New(controller.RuleVocabulary)
	for name, src := range controller.DefaultRuleSources() {
		e, err := reg.Put(name, src)
		if err != nil {
			t.Fatalf("recompile %s: %v", name, err)
		}
		if err := ctl.SwapRuleBase(name, e.Base); err != nil {
			t.Fatalf("swap %s: %v", name, err)
		}
	}
}

// TestHotSwapIdenticalBaseMidRunByteIdentical is the atomicity proof of
// the hot-swap path at system scale: re-compiling every default rule
// base from source and swapping the whole set into the live controller
// in the middle of a simulated day changes not a single decision — the
// run is byte-identical to one that never swapped.
func TestHotSwapIdenticalBaseMidRunByteIdentical(t *testing.T) {
	base, err := declaredSim(t, tuneForActions).Run()
	if err != nil {
		t.Fatal(err)
	}

	sim := declaredSim(t, tuneForActions)
	minutes := sim.cfg.Hours * 60
	for m := 0; m < minutes; m++ {
		if m == minutes/2 {
			swapDefaults(t, sim.Controller())
		}
		if err := sim.Step(m); err != nil {
			t.Fatal(err)
		}
	}
	sim.res.Actions = sim.Controller().Events()
	assertIdentical(t, base, sim.res, "identical-base mid-run swap")
}

// writeRuleFile writes one versioned rule file into a registry-layout
// directory.
func writeRuleFile(t *testing.T, dir, name string, version int, src string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(name)+"@v"+strconv.Itoa(version)+".rules")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// perturbedIdle is a serviceIdle candidate that scales in on *any*
// low-load service — a visible semantic departure from the default
// base, which shrinks only when the instance count is clearly
// excessive or the host is contended.
const perturbedIdle = "IF serviceLoad IS low THEN scaleIn IS applicable\n"

// TestShadowRulesDiffOnSimulatedDay is the acceptance run for shadow
// mode: a perturbed candidate rides along a full simulated day, its
// decisions demonstrably diverge from the active rule set's, and yet
// the run is byte-identical to one without any shadow — the candidate
// never executes anything.
func TestShadowRulesDiffOnSimulatedDay(t *testing.T) {
	base, err := paperSim(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	writeRuleFile(t, dir, "serviceIdle", 1, perturbedIdle)
	reg := obs.NewRegistry()
	sim := paperSim(t, func(c *Config) {
		c.ShadowRulesDir = dir
		c.ShadowLabel = "perturbed@v1"
		c.Obs = reg
	})
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, base, res, "shadow-evaluated run")

	if v := reg.Counter(controller.MetricShadowEvals, "candidate", "perturbed@v1").Value(); v == 0 {
		t.Fatalf("%s = 0: the shadow candidate was never evaluated, the diff claim is vacuous", controller.MetricShadowEvals)
	}
	if v := reg.Counter(controller.MetricShadowDiffs, "candidate", "perturbed@v1", "field", "action").Value(); v == 0 {
		t.Fatalf("%s = 0: the perturbed candidate never disagreed with the active rule set", controller.MetricShadowDiffs)
	}
}

// TestRulesDirActivatesOnStartup proves the file-driven activation
// path: a rules directory holding a perturbed active base changes the
// controller's behaviour from minute 0, and a higher version shadows a
// lower one.
func TestRulesDirActivatesOnStartup(t *testing.T) {
	base, err := paperSim(t, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Actions) == 0 {
		t.Fatal("baseline run decided nothing — comparison is vacuous")
	}

	dir := t.TempDir()
	// v1 is the default source; v2 the perturbation — LoadDir must
	// activate v2.
	writeRuleFile(t, dir, "serviceIdle", 1, controller.DefaultRuleSources()["serviceIdle"])
	writeRuleFile(t, dir, "serviceIdle", 2, perturbedIdle)
	res, err := paperSim(t, func(c *Config) {
		c.RulesDir = dir
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	wantLog, gotLog := renderEvents(base.Actions), renderEvents(res.Actions)
	same := len(wantLog) == len(gotLog)
	if same {
		for i := range wantLog {
			if wantLog[i] != gotLog[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("perturbed rules dir changed no decision (%d events)", len(gotLog))
	}

	// A directory with an unroutable base name fails loudly at build.
	bad := t.TempDir()
	writeRuleFile(t, bad, "noSuchSlot", 1, perturbedIdle)
	if _, err := paperSim0(func(c *Config) { c.RulesDir = bad }); err == nil {
		t.Fatal("unroutable rules dir accepted")
	}
}
