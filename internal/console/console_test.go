package console

import (
	"cmp"
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/cluster"
	"autoglobe/internal/controller"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
	"autoglobe/internal/tsdb"
)

func testWorld(t *testing.T) (*service.Deployment, *archive.Archive) {
	t.Helper()
	dep, err := service.BuildPaperDeployment(cluster.Paper(), service.ConstrainedMobility, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	arch := archive.New(0)
	arch.Record(archive.HostEntity("Blade1"), archive.Sample{Minute: 0, CPU: 0.42, Mem: 0.5})
	arch.Record(archive.ServiceEntity("FI"), archive.Sample{Minute: 0, CPU: 0.33})
	return dep, arch
}

func TestServerView(t *testing.T) {
	dep, arch := testWorld(t)
	v := ServerView(dep, arch)
	for _, want := range []string{"SERVER VIEW", "FSC-BX300", "FSC-BX600", "HP-Proliant-BL40p", "Blade1", "DBServer3", "42%"} {
		if !strings.Contains(v, want) {
			t.Errorf("server view missing %q:\n%s", want, v)
		}
	}
	// Blade1 runs LES per the initial allocation.
	for _, line := range strings.Split(v, "\n") {
		if strings.Contains(line, "Blade1 ") && !strings.Contains(line, "LES") {
			t.Errorf("Blade1 line missing its LES instance: %s", line)
		}
	}
}

func TestServiceView(t *testing.T) {
	dep, arch := testWorld(t)
	v := ServiceView(dep, arch)
	for _, want := range []string{"SERVICE VIEW", "FI", "interactive", "DB-ERP", "database", "600", "33%"} {
		if !strings.Contains(v, want) {
			t.Errorf("service view missing %q:\n%s", want, v)
		}
	}
}

func TestServerDetail(t *testing.T) {
	dep, arch := testWorld(t)
	for m := 1; m < 200; m++ {
		arch.Record(archive.HostEntity("Blade1"), archive.Sample{Minute: m, CPU: 0.5, Mem: 0.5})
	}
	v := ServerDetail(dep, arch, "Blade1", 200)
	for _, want := range []string{"SERVER DETAIL", "933 MHz", "p95", "day profile", "LES"} {
		if !strings.Contains(v, want) {
			t.Errorf("server detail missing %q:\n%s", want, v)
		}
	}
	if got := ServerDetail(dep, arch, "ghost", 0); !strings.Contains(got, "unknown server") {
		t.Errorf("unknown host detail = %q", got)
	}
}

// TestServerDetailOverBackedArchive is the console's deep reader over
// the two-tier archive: two days of one host's load, recorded into an
// in-memory archive and a backed one, whose ring holds the last 128
// minutes of them. The panel — "last 24 h" spans 1,441 minutes, all but
// the newest from the store — must read the same; the fall-through shows
// on the observability panel; and a store that cannot be read shows as
// that, not as a server without history.
func TestServerDetailOverBackedArchive(t *testing.T) {
	dep, mem := testWorld(t)
	backed, err := archive.NewBacked(t.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	backed.Instrument(reg)
	entity := archive.HostEntity("Blade1")
	first, _ := mem.Latest(entity) // testWorld's sample at minute 0
	// An instance beside the host: an entity, but no day profile.
	if err := cmp.Or(backed.Record(entity, first), backed.Record(archive.InstanceEntity("FI-1"), first)); err != nil {
		t.Fatal(err)
	}
	const now = 2 * archive.MinutesPerDay
	for m := 1; m <= now; m++ {
		s := archive.Sample{Minute: m, CPU: float64(m%97) / 100, Mem: 0.5}
		if err := cmp.Or(mem.Record(entity, s), backed.Record(entity, s)); err != nil {
			t.Fatal(err)
		}
	}
	want := ServerDetail(dep, mem, "Blade1", now)
	if !strings.Contains(want, "last 24 h: mean 48%, p95 92%, p99 96%") {
		t.Fatalf("in-memory panel:\n%s", want)
	}
	if got := ServerDetail(dep, backed, "Blade1", now); got != want {
		t.Errorf("backed panel:\n%s\nin-memory panel:\n%s", got, want)
	}
	v := ObsView(reg, nil, 0)
	for _, want := range []string{archive.MetricDeepReads + " = 3", archive.MetricEntities + " = 2", archive.MetricProfiles + " = 1"} {
		if !strings.Contains(v, want) {
			t.Errorf("obs view missing %q:\n%s", want, v)
		}
	}
	if err := backed.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ServerDetail(dep, backed, "Blade1", now); !strings.Contains(got, "last 24 h: unreadable: ") || !strings.Contains(got, tsdb.ErrClosed.Error()) {
		t.Errorf("panel over a closed store:\n%s", got)
	}
}

func TestMessageView(t *testing.T) {
	events := []controller.Event{
		{Minute: 10, Note: "ALERT something"},
		{Minute: 20, Executed: true, Decision: &controller.Decision{
			Action: service.ActionScaleOut, Service: "FI", TargetHost: "Blade6",
			Trigger: monitor.Trigger{Minute: 20},
		}},
	}
	v := MessageView(events, 0)
	if !strings.Contains(v, "ALERT something") || !strings.Contains(v, "Out Blade6 (FI)") {
		t.Errorf("message view incomplete:\n%s", v)
	}
	if got := MessageView(nil, 0); !strings.Contains(got, "no messages") {
		t.Errorf("empty message view = %q", got)
	}
	limited := MessageView(events, 1)
	if !strings.Contains(limited, "1 earlier message") {
		t.Errorf("limit not applied:\n%s", limited)
	}
}
