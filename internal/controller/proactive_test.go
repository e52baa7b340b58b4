package controller

import (
	"reflect"
	"strings"
	"testing"

	"autoglobe/internal/archive"
	"autoglobe/internal/forecast"
	"autoglobe/internal/monitor"
	"autoglobe/internal/obs"
	"autoglobe/internal/service"
)

// Every scanned entity of a forecastBed is dealt one of three classes
// round-robin, in scan order, scanClassCycle entities to a cycle: one
// raises a trigger, one passes the ramp gate but forecasts no
// overload, the rest sit below the ramp gate. 10 % of the entities are
// therefore past the ramp gate, half of them raising.
const (
	scanClassCycle = 20
	scanNow        = archive.MinutesPerDay + 11*60 + 30 // 11:30 on day two
	scanThreshold  = 0.70
)

// scanClassLoad returns the day-profile scale and the present load of
// the i-th scanned entity. The profile is a triangle from 0.2 at
// midnight to 0.9 at noon, so at 11:30 a full-scale profile still
// climbs past the 0.70 threshold inside a 30-minute horizon.
func scanClassLoad(i int) (scale, latest float64) {
	switch i % scanClassCycle {
	case 0:
		return 1, 0.75 // ramping, forecast above the threshold: raised
	case 1:
		return 0.6, 0.60 // ramping (≥ 0.8·0.70), forecast peaks near 0.55: predicted only
	default:
		return 1, 0.30 // far below the ramp gate
	}
}

// forecastBed builds the tiled landscape, an archive holding one
// pre-seeded day plus one sample at scanNow per host and service, and a
// forecasting controller over both. watching, when non-nil, is wired as
// ForecastConfig.Watching.
func forecastBed(tb testing.TB, cells int, watching func(string) bool) (*Controller, *archive.Archive) {
	tb.Helper()
	dep := service.TilePaper(cells)
	arch := archive.New(archive.MinutesPerDay)
	i := 0
	seed := func(key string) {
		seedScanEntity(tb, arch, key, i)
		i++
	}
	for _, h := range dep.Cluster().Names() {
		seed(archive.HostEntity(h))
	}
	for _, s := range dep.Catalog().Names() {
		seed(archive.ServiceEntity(s))
	}
	ctl, err := New(Config{Forecast: &ForecastConfig{
		Predictor: forecast.New(arch),
		Horizon:   30,
		Threshold: scanThreshold,
		Watching:  watching,
	}}, dep, arch, NewDeploymentExecutor(dep, RebalanceUsers))
	if err != nil {
		tb.Fatal(err)
	}
	return ctl, arch
}

// seedScanEntity records the pre-seeded day and the present sample of
// the i-th scanned entity.
func seedScanEntity(tb testing.TB, arch *archive.Archive, key string, i int) {
	tb.Helper()
	scale, latest := scanClassLoad(i)
	const half = archive.MinutesPerDay / 2
	for m := 0; m < archive.MinutesPerDay; m++ {
		d := m
		if d > half {
			d = archive.MinutesPerDay - d
		}
		cpu := scale * (0.2 + 0.7*float64(d)/half)
		if err := arch.Record(key, archive.Sample{Minute: m, CPU: cpu}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := arch.Record(key, archive.Sample{Minute: scanNow, CPU: latest}); err != nil {
		tb.Fatal(err)
	}
}

// refProactive is the proactive scan as it was before the cached scan
// list and the reordered gates, kept as the oracle: names copied from
// the cluster and the catalog on every call, keys built per entity,
// gates in their original order, string-keyed predictor reads.
func refProactive(c *Controller, arch *archive.Archive, minute int) []monitor.Trigger {
	f := c.cfg.Forecast
	ramp := f.RampFraction
	if ramp == 0 {
		ramp = defaultRampFraction
	}
	var out []monitor.Trigger
	scan := func(kind monitor.TriggerKind, name, key string, protected bool) {
		if protected || (f.Watching != nil && f.Watching(key)) {
			return
		}
		if latest, have := arch.Latest(key); !have || latest.CPU < ramp*f.Threshold {
			return
		}
		peak, confidence, ok := f.Predictor.PredictPeak(key, minute, f.Horizon)
		if !ok || peak <= f.Threshold || confidence < f.MinConfidence {
			return
		}
		out = append(out, monitor.Trigger{Kind: kind, Entity: name, Minute: minute, AvgLoad: peak,
			WatchedFrom: max(0, minute-f.Horizon), Confidence: confidence})
	}
	for _, h := range c.dep.Cluster().Names() {
		scan(monitor.ServerForecastOverload, h, archive.HostEntity(h), c.HostProtected(h, minute))
	}
	for _, s := range c.dep.Catalog().Names() {
		if c.dep.CountOf(s) > 0 {
			scan(monitor.ServiceForecastOverload, s, archive.ServiceEntity(s), c.ServiceProtected(s, minute))
		}
	}
	return out
}

// scanMustMatch runs the scan and the oracle and fails on any
// difference; it returns a copy of the triggers (the scan's own slice
// is only valid until the next Proactive call).
func scanMustMatch(t *testing.T, c *Controller, arch *archive.Archive, minute int) []monitor.Trigger {
	t.Helper()
	got := append([]monitor.Trigger(nil), c.Proactive(minute)...)
	if want := refProactive(c, arch, minute); !reflect.DeepEqual(got, want) {
		t.Fatalf("minute %d: Proactive = %v\nreference scan   = %v", minute, got, want)
	}
	return got
}

func raisedFor(trs []monitor.Trigger, entity string) bool {
	for _, tr := range trs {
		if tr.Entity == entity {
			return true
		}
	}
	return false
}

// TestProactiveKeyCacheFollowsCluster: the scan list is cached across
// minutes, so it must follow cluster membership — a host pooled
// mid-run is scanned on the next minute (after the older hosts, before
// the services, as cluster order has it), an unpooled one is not — and
// stay trigger-for-trigger equal to the uncached reference scan
// throughout, protection and watches included.
func TestProactiveKeyCacheFollowsCluster(t *testing.T) {
	watched := map[string]bool{}
	ctl, arch := forecastBed(t, 2, func(key string) bool { return watched[key] })
	first := scanMustMatch(t, ctl, arch, scanNow)
	if len(first) == 0 {
		t.Fatal("landscape raised no forecast trigger; the test is vacuous")
	}
	var hostTriggers int
	for _, tr := range first {
		if tr.Kind == monitor.ServerForecastOverload {
			hostTriggers++
		}
	}
	if hostTriggers == 0 || hostTriggers == len(first) {
		t.Fatalf("want host and service triggers, got %d of %d for hosts", hostTriggers, len(first))
	}

	// A blade is inserted and ramps up: scanned on the next minute.
	spare := host("spare", 2, 4096)
	if err := ctl.dep.Cluster().Add(spare); err != nil {
		t.Fatal(err)
	}
	seedScanEntity(t, arch, archive.HostEntity("spare"), 0)
	second := scanMustMatch(t, ctl, arch, scanNow+1)
	if !raisedFor(second, "spare") {
		t.Fatalf("host added mid-run was not scanned: %v", second)
	}
	if second[hostTriggers].Entity != "spare" {
		t.Fatalf("added host's trigger at the wrong place: %v", second)
	}

	// Protection and a monitor watch silence entities without touching
	// the cache.
	ctl.protHost[first[0].Entity] = scanNow + 30
	watched[archive.ServiceEntity(first[len(first)-1].Entity)] = true
	third := scanMustMatch(t, ctl, arch, scanNow+2)
	if raisedFor(third, first[0].Entity) || raisedFor(third, first[len(first)-1].Entity) {
		t.Fatalf("protected host or watched service still raised: %v", third)
	}

	// The blade is pulled again: no longer scanned, although its archive
	// history still says "ramping".
	if err := ctl.dep.Cluster().Remove("spare"); err != nil {
		t.Fatal(err)
	}
	if fourth := scanMustMatch(t, ctl, arch, scanNow+3); raisedFor(fourth, "spare") {
		t.Fatalf("host removed mid-run is still scanned: %v", fourth)
	}
}

// TestProactiveScanCountsOutcomes: one scan adds each entity to exactly
// one outcome of the scan counter, and the raised outcome agrees with
// the forecast-trigger counter.
func TestProactiveScanCountsOutcomes(t *testing.T) {
	watched := map[string]bool{}
	ctl, _ := forecastBed(t, 2, func(key string) bool { return watched[key] })
	reg := obs.NewRegistry()
	ctl.Instrument(reg)
	// Entities 0 and 20 raise, 1 and 21 forecast below the threshold;
	// protect the first raiser and watch the first non-raiser.
	names := ctl.dep.Cluster().Names()
	ctl.protHost[names[0]] = scanNow + 30
	watched[archive.HostEntity(names[1])] = true
	entities := len(names) + ctl.dep.Catalog().Len()
	ramping := (entities + scanClassCycle - 1) / scanClassCycle
	ramping += (entities + scanClassCycle - 2) / scanClassCycle
	raised := len(ctl.Proactive(scanNow))

	snap := reg.Snapshot()
	count := func(outcome string) int {
		return int(snap[MetricForecastScan+`{outcome="`+outcome+`"}`])
	}
	if got := count("below_ramp"); got != entities-ramping {
		t.Errorf("below_ramp = %d, want %d of %d entities", got, entities-ramping, entities)
	}
	if count("protected") != 1 || count("watched") != 1 {
		t.Errorf("protected = %d, watched = %d, want 1 and 1", count("protected"), count("watched"))
	}
	if got := count("raised"); got != raised || raised == 0 {
		t.Errorf("raised = %d, scan returned %d triggers", got, raised)
	}
	if got := count("predicted"); got != ramping-2-raised || got == 0 {
		t.Errorf("predicted = %d, want %d", got, ramping-2-raised)
	}
	var triggers float64
	for _, kind := range []monitor.TriggerKind{monitor.ServerForecastOverload, monitor.ServiceForecastOverload} {
		triggers += snap[MetricForecastTriggers+`{trigger="`+string(kind)+`"}`]
	}
	if int(triggers) != raised {
		t.Errorf("forecast trigger counter = %v, scan returned %d", triggers, raised)
	}
}

// TestProactiveScanZeroAlloc guards the steady-state scan: with the
// scan list cached, the trigger buffer recycled and the counters
// resolved — a registry attached, a watch hook wired, triggers raised —
// a scan minute allocates nothing.
func TestProactiveScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	ctl, _ := forecastBed(t, 2, func(string) bool { return false })
	ctl.Instrument(obs.NewRegistry())
	ctl.Proactive(scanNow) // builds the scan list, sizes the buffer, resolves the counters
	allocs := testing.AllocsPerRun(100, func() {
		if len(ctl.Proactive(scanNow)) == 0 {
			t.Fatal("scan raised no trigger")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state proactive scan allocates %v times per minute, want 0", allocs)
	}
}

// BenchmarkProactiveScan1k measures one proactive scan minute over
// 1,007 hosts and their services (53 tiled paper cells, one pre-seeded
// day): 10 % of the entities are past the ramp gate and evaluated over
// a 30-minute horizon, half of those raise a trigger. The other gates
// cost what they cost in a running plane — the watch hook is a lookup
// in a map holding every entity (monitor.System.Watching), and the
// protection maps hold lapsed entries for one entity in 50 — but turn
// nothing away.
func BenchmarkProactiveScan1k(b *testing.B) {
	watchers := map[string]bool{}
	ctl, arch := forecastBed(b, 53, func(key string) bool { return watchers[key] })
	for i, key := range arch.Entities() {
		watchers[key] = false
		if name, isHost := strings.CutPrefix(key, "host/"); i%50 == 0 && isHost {
			ctl.protHost[name] = scanNow - 1
		} else if name, isSvc := strings.CutPrefix(key, "svc/"); i%50 == 0 && isSvc {
			ctl.protSvc[name] = scanNow - 1
		}
	}
	ctl.Instrument(obs.NewRegistry())
	raised := len(ctl.Proactive(scanNow))
	if raised == 0 {
		b.Fatal("scan raised no trigger — the benchmark is vacuous")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl.Proactive(scanNow)
	}
	b.ReportMetric(float64(raised), "triggers/op")
}
