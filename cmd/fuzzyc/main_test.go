package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/tsdb"
)

// TestMain lets the test binary stand in for the command: with
// FUZZYC_RUN_MAIN=1 in its environment it runs main on its arguments
// and exits, so the tests drive the real flag parsing, printing and
// exit codes without a separate build.
func TestMain(m *testing.M) {
	if os.Getenv("FUZZYC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fuzzyc runs the command with args and stdin and returns what it
// printed and its exit code.
func fuzzyc(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FUZZYC_RUN_MAIN=1")
	cmd.Stdin = strings.NewReader(stdin)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestFuzzycInference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stdin string
		args  []string
		want  string
	}{
		{
			name: "serviceOverloaded",
			args: []string{"-builtin", "serviceOverloaded", "cpuLoad=0.85", "memLoad=0.4", "instanceLoad=0.8",
				"serviceLoad=0.75", "instancesOnServer=2", "instancesOfService=3", "performanceIndex=1"},
			want: `rule base "serviceOverloaded" (8 rules), defuzzifier leftmost-maximum
  fired 0.60: IF instanceLoad IS high AND (performanceIndex IS low OR performanceIndex IS medium) THEN scaleUp IS applicable
  fired 0.50: IF serviceLoad IS high THEN scaleOut IS applicable
outputs:
  scaleUp              0.605
  scaleOut             0.500
  increasePriority     0.000
  move                 0.000
`,
		},
		{
			name: "serviceIdle",
			args: []string{"-builtin", "serviceIdle", "cpuLoad=0.7", "instanceLoad=0.1", "serviceLoad=0.15",
				"instancesOfService=5", "performanceIndex=8"},
			want: `rule base "serviceIdle" (5 rules), defuzzifier leftmost-maximum
  fired 0.50: IF serviceLoad IS low AND instancesOfService IS many THEN scaleIn IS applicable
  fired 0.40: IF (instanceLoad IS low AND cpuLoad IS high) AND (NOT instancesOfService IS few) THEN scaleIn IS applicable
  fired 1.00: IF (instanceLoad IS low AND performanceIndex IS high) AND (NOT cpuLoad IS low) THEN scaleDown IS applicable
outputs:
  scaleDown            1.000
  scaleIn              0.500
  reducePriority       0.000
`,
		},
		{
			name: "serverOverloaded",
			args: []string{"-builtin", "serverOverloaded", "cpuLoad=0.95", "memLoad=0.9", "instanceLoad=0.5",
				"serviceLoad=0.6", "instancesOnServer=4", "instancesOfService=2", "performanceIndex=6"},
			want: `rule base "serverOverloaded" (8 rules), defuzzifier leftmost-maximum
  fired 0.90: IF cpuLoad IS high AND instanceLoad IS medium THEN move IS applicable
  fired 0.80: IF memLoad IS high AND (NOT instanceLoad IS low) THEN move IS applicable
outputs:
  move                 0.900
  reducePriority       0.000
  scaleIn              0.000
  scaleOut             0.000
  scaleUp              0.000
`,
		},
		{
			name: "serverIdle",
			args: []string{"-builtin", "serverIdle", "cpuLoad=0.1", "instanceLoad=0.2", "instancesOfService=6", "performanceIndex=9"},
			want: `rule base "serverIdle" (2 rules), defuzzifier leftmost-maximum
  fired 1.00: IF (cpuLoad IS low AND instanceLoad IS low) AND instancesOfService IS many THEN scaleIn IS applicable
outputs:
  scaleIn              1.000
  scaleDown            0.000
`,
		},
		{
			name: "centroid",
			args: []string{"-builtin", "serverIdle", "-defuzz", "centroid", "cpuLoad=0.1", "instanceLoad=0.2",
				"instancesOfService=6", "performanceIndex=9"},
			want: `rule base "serverIdle" (2 rules), defuzzifier centroid
  fired 1.00: IF (cpuLoad IS low AND instanceLoad IS low) AND instancesOfService IS many THEN scaleIn IS applicable
outputs:
  scaleIn              0.668
  scaleDown            0.000
`,
		},
		{
			// Rules from stdin; equal outputs print in name order.
			name:  "dump",
			stdin: "IF cpuLoad IS high THEN scaleUp IS applicable\nIF cpuLoad IS high THEN move IS applicable\n",
			args:  []string{"-dump", "cpuLoad=0.9"},
			want: `rule  1: IF cpuLoad IS high THEN scaleUp IS applicable
rule  2: IF cpuLoad IS high THEN move IS applicable
rule base "cli" (2 rules), defuzzifier leftmost-maximum
  fired 0.80: IF cpuLoad IS high THEN scaleUp IS applicable
  fired 0.80: IF cpuLoad IS high THEN move IS applicable
outputs:
  move                 0.800
  scaleUp              0.800
`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := fuzzyc(t, tc.stdin, tc.args...)
			if code != 0 || errOut != "" {
				t.Fatalf("exit %d, stderr %q", code, errOut)
			}
			if out != tc.want {
				t.Errorf("stdout:\n%s\nwant:\n%s", out, tc.want)
			}
		})
	}
}

// TestFuzzycMissingInput pins the error a missing measurement prints:
// the first input slot without a value, named with the first rule that
// reads it.
func TestFuzzycMissingInput(t *testing.T) {
	out, errOut, code := fuzzyc(t, "", "-builtin", "serviceOverloaded", "instanceLoad=0.8", "performanceIndex=1")
	const want = `fuzzyc: fuzzy: rule base "serviceOverloaded", rule 2 (IF serviceLoad IS high THEN scaleOut IS applicable): ` +
		`fuzzy: no measurement for input variable "serviceLoad"` + "\n"
	if code != 1 || out != "" || errOut != want {
		t.Errorf("exit %d, stdout %q, stderr:\n%s\nwant exit 1 and:\n%s", code, out, errOut, want)
	}
}

// TestFuzzycReplay replays a small archive through the built-in
// serverIdle base and a candidate that also scales down a busy host:
// of the host's four minutes only the busy one decides differently,
// and the service series is not replayed for a server base.
func TestFuzzycReplay(t *testing.T) {
	dir := t.TempDir()
	arch, err := archive.NewBacked(filepath.Join(dir, "archive"), 0, tsdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for m, cpu := range []float64{0.1, 0.1, 0.95, 0.1} {
		if err := arch.Record(archive.HostEntity("Blade1"), archive.Sample{Minute: m, CPU: cpu, Mem: 0.2}); err != nil {
			t.Fatal(err)
		}
		if err := arch.Record(archive.ServiceEntity("FI"), archive.Sample{Minute: m, CPU: 0.95, Mem: 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := arch.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	cand := filepath.Join(dir, "candidate.rules")
	src := "IF cpuLoad IS low AND instancesOfService IS many THEN scaleIn IS applicable\n" +
		"IF cpuLoad IS high THEN scaleDown IS applicable\n"
	if err := os.WriteFile(cand, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	out, errOut, code := fuzzyc(t, "", "replay", "-name", "serverIdle", "-rules", cand,
		"-archive-dir", filepath.Join(dir, "archive"), "instanceLoad=0.1", "instancesOfService=6", "performanceIndex=5")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "candidate serverIdle: 2 rules, hash ") || !strings.HasSuffix(lines[0], " — valid") {
		t.Errorf("first line %q", lines[0])
	}
	const want = `  minute    2 host/Blade1    cpu=0.95 mem=0.20: baseline (none), candidate scaleDown(0.90)
replayed 4 samples over 1 entities (minutes 0..3): 1 decisions differ
      1 × (none) -> scaleDown
`
	if got := strings.Join(lines[1:], "\n"); got != want {
		t.Errorf("replay printed:\n%s\nwant:\n%s", got, want)
	}
}
