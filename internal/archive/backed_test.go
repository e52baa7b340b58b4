package archive

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"autoglobe/internal/tsdb"
)

// dayLoad is a deterministic two-peak synthetic day, distinct per
// entity.
func dayLoad(ent, minute int) (cpu, mem float64) {
	m := minute % MinutesPerDay
	base := float64((m*(ent+3))%977) / 1024.0
	return base, base / 2
}

// TestBackedArchiveSurvivesCrash is the acceptance test of the disk
// store: a full simulated day recorded into a backed archive, abandoned
// without Close (the crash), and recovered by a fresh NewBacked must
// serve a byte-identical DayProfile, the same running means,
// observation counts and raw samples for every entity. Byte-identical, not approximately equal: replay re-applies
// the same float operations in the same order.
func TestBackedArchiveSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	a, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keepProfiles(t, a)
	entities := []string{
		HostEntity("b1"), HostEntity("b2"),
		ServiceEntity("app"), InstanceEntity("app-1"),
	}
	for m := 0; m < MinutesPerDay; m++ {
		for e, entity := range entities {
			cpu, mem := dayLoad(e, m)
			if err := a.Record(entity, Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Maintain(m); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no Close. Everything through the last Maintain is acked.
	re, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	keepProfiles(t, re)
	if got, want := re.Entities(), a.Entities(); len(got) != len(want) {
		t.Fatalf("recovered %d entities, want %d", len(got), len(want))
	}
	for _, entity := range entities {
		if got := re.Entity(entity).DaysObserved() > 0; got != profiled(entity) {
			t.Fatalf("%s: has a day profile after recovery: %v", entity, got)
		}
		before := a.DayProfile(entity)
		after := re.DayProfile(entity)
		for m := range before {
			if before[m] != after[m] {
				t.Fatalf("%s: DayProfile[%d] diverges after recovery: %v != %v",
					entity, m, after[m], before[m])
			}
		}
		if b, r := a.Entity(entity).ObservationCount(100), re.Entity(entity).ObservationCount(100); b != r {
			t.Fatalf("%s: observation count %d after recovery, want %d", entity, r, b)
		}
		if a.Len(entity) != re.Len(entity) {
			t.Fatalf("%s: ring length %d after recovery, want %d", entity, re.Len(entity), a.Len(entity))
		}
		bw, err := a.Window(entity, 0, MinutesPerDay)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := re.Window(entity, 0, MinutesPerDay)
		if err != nil {
			t.Fatal(err)
		}
		for i := range bw {
			if bw[i] != rw[i] {
				t.Fatalf("%s: ring sample %d diverges: %+v != %+v", entity, i, rw[i], bw[i])
			}
		}
	}
	a.Close()
}

// TestBackedArchiveRetentionCompaction drives a backed archive past
// its retention window and checks Maintain cuts the disk history behind
// it, an hour at a time, while the in-memory APIs keep working
// unchanged.
func TestBackedArchiveRetentionCompaction(t *testing.T) {
	dir := t.TempDir()
	const retention = MinutesPerDay // 1 day of raw samples
	a, err := NewBacked(dir, retention, tsdb.Options{NoSync: true, SegmentBytes: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	entity := ServiceEntity("app")
	const minutes = 3 * MinutesPerDay
	for m := 0; m < minutes; m++ {
		cpu, mem := dayLoad(0, m)
		if err := a.Record(entity, Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
			t.Fatal(err)
		}
		if err := a.Maintain(m); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Store()
	if wm := st.Watermark(); wm <= 0 || wm > minutes-retention {
		t.Fatalf("retention cut %d, want in (0, %d]", wm, minutes-retention)
	}
	var buf tsdb.SeriesBuf
	if err := st.ReadSeries(entity, 0, minutes, &buf); err != nil {
		t.Fatal(err)
	}
	if wm := st.Watermark(); len(buf.Minutes) != minutes-wm || buf.Minutes[0].Minute != wm {
		t.Fatalf("%d raw minutes after the cut at %d, want the %d from it", len(buf.Minutes), wm, minutes-wm)
	}
	// The hot tier is untouched by compaction.
	if got, ok := a.Latest(entity); !ok || got.Minute != minutes-1 {
		t.Fatalf("Latest = %+v, %v", got, ok)
	}
}

// TestArchiveRecordPathZeroAlloc is the perf-gate guard the ISSUE asks
// for: the steady-state archive append path — incremental day-profile
// update, the append into the store's open block, and
// the once-per-minute Commit (tail-record encode, CRC frame, one
// buffered segment write) — must allocate nothing. The forecast-facing
// reads (ProfileAt, DayProfileInto) ride along under the same guard.
func TestArchiveRecordPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted by race instrumentation")
	}
	dir := t.TempDir()
	a, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	keepProfiles(t, a)
	const ents = 8
	entities := make([]string, ents)
	for e := range entities {
		entities[e] = ServiceEntity(fmt.Sprintf("app-%d", e))
	}
	a.Preallocate(entities...)
	profile := make([]float64, MinutesPerDay)
	minute := 0
	var sink float64
	step := func() {
		for e, entity := range entities {
			cpu, mem := dayLoad(e, minute)
			if err := a.Record(entity, Sample{Minute: minute, CPU: cpu, Mem: mem}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		sink += a.Entity(entities[0]).ProfileAt(minute + 15)
		a.DayProfileInto(entities[0], profile)
		minute++
	}
	// Warm pools and buffers through two full 64-sample seal cycles,
	// ending on a seal so the measured runs stay inside one open block.
	for minute%64 != 0 || minute < 128 {
		step()
	}
	if allocs := testing.AllocsPerRun(48, step); allocs != 0 {
		t.Fatalf("steady-state record+commit+profile reads allocate %.1f times per minute, want 0", allocs)
	}
	_ = sink
	if a.Entity(entities[0]).DaysObserved() == 0 || slices.Max(profile) == 0 {
		t.Fatal("the profile reads read an empty profile: the guard lost its teeth")
	}
}

// TestProfileAccessorsMatchDayProfile pins the incremental running
// mean against the allocating DayProfile API on gappy history.
func TestProfileAccessorsMatchDayProfile(t *testing.T) {
	a := New(0)
	keepProfiles(t, a)
	entity := ServiceEntity("app")
	// Two days, second day only partially observed, some minutes thrice.
	for m := 0; m < MinutesPerDay; m++ {
		cpu, _ := dayLoad(0, m)
		if err := a.Record(entity, Sample{Minute: m, CPU: cpu}); err != nil {
			t.Fatal(err)
		}
	}
	for m := MinutesPerDay; m < MinutesPerDay+300; m++ {
		cpu, _ := dayLoad(1, m)
		if err := a.Record(entity, Sample{Minute: m, CPU: cpu}); err != nil {
			t.Fatal(err)
		}
	}
	if a.Entity(entity).DaysObserved() == 0 {
		t.Fatal("no day profile: the comparison lost its teeth")
	}
	full := a.DayProfile(entity)
	into := make([]float64, MinutesPerDay)
	a.DayProfileInto(entity, into)
	for m := 0; m < MinutesPerDay; m++ {
		if full[m] != into[m] || full[m] != a.Entity(entity).ProfileAt(m) {
			t.Fatalf("minute %d: DayProfile %v, Into %v, ProfileAt %v diverge",
				m, full[m], into[m], a.Entity(entity).ProfileAt(m))
		}
	}
	if c := a.Entity(entity).ObservationCount(10); c != 2 {
		t.Fatalf("ObservationCount(10) = %d, want 2", c)
	}
	if c := a.Entity(entity).ObservationCount(400); c != 1 {
		t.Fatalf("ObservationCount(400) = %d, want 1", c)
	}
	if d := a.Entity(entity).DaysObserved(); d != 2 {
		t.Fatalf("DaysObserved = %d, want 2", d)
	}
	// Unknown entities read as empty, not as a panic or allocation.
	if v := a.Entity("svc/ghost").ProfileAt(3); v != 0 {
		t.Fatalf("ProfileAt(ghost) = %v", v)
	}
	a.DayProfileInto("svc/ghost", into)
	for m, v := range into {
		if v != 0 {
			t.Fatalf("DayProfileInto(ghost)[%d] = %v, want 0", m, v)
		}
	}
}

// daysObservedScan is the full-scan reference DaysObserved replaced:
// the deepest of all 1,440 per-minute observation counts.
func daysObservedScan(a *Archive, entity string) int {
	most := 0
	for m := 0; m < MinutesPerDay; m++ {
		if c := a.Entity(entity).ObservationCount(m); c > most {
			most = c
		}
	}
	return most
}

// TestDaysObservedIncremental pins the running max ingest maintains
// against the full scan — after every record of random, gappy,
// multi-day sequences (including a retention shorter than the history,
// so its read rule is shown not to touch the profile depth), for handles and
// string-keyed reads alike, and again after a backed archive is closed
// and reopened, where the replay path must rebuild the same value.
func TestDaysObservedIncremental(t *testing.T) {
	dir := t.TempDir()
	a, err := NewBacked(dir, 500, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	keepProfiles(t, a)
	rng := rand.New(rand.NewSource(13))
	entities := []string{HostEntity("b1"), ServiceEntity("app"), HostEntity("b2"), ServiceEntity("db")}
	if got := a.Entity("host/ghost").DaysObserved(); got != 0 {
		t.Fatalf("unknown entity: DaysObserved = %d, want 0", got)
	}
	for _, entity := range entities {
		minute := rng.Intn(MinutesPerDay)
		for i := 0; i < 4000; i++ {
			// Mostly consecutive minutes, some repeats of the same minute,
			// some gaps of up to a day and a half.
			switch rng.Intn(10) {
			case 0:
			case 1:
				minute += rng.Intn(3 * MinutesPerDay / 2)
			default:
				minute++
			}
			if err := a.Record(entity, Sample{Minute: minute, CPU: rng.Float64()}); err != nil {
				t.Fatal(err)
			}
			if i%97 != 0 && i < 3900 {
				continue // the scan is 1,440 reads; check a sample of steps and the tail
			}
			want := daysObservedScan(a, entity)
			if got := a.Entity(entity).DaysObserved(); got != want {
				t.Fatalf("%s after %d records: DaysObserved = %d, full scan %d", entity, i+1, got, want)
			}
		}
		if a.Entity(entity).DaysObserved() < 2 {
			t.Fatalf("%s: history never revisited a minute of day; the test lost its teeth", entity)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewBacked(dir, 500, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	keepProfiles(t, re)
	for _, entity := range entities {
		want := daysObservedScan(re, entity)
		if got := re.Entity(entity).DaysObserved(); got != want || got != a.Entity(entity).DaysObserved() {
			t.Fatalf("%s after reopen: DaysObserved = %d, full scan %d, before close %d",
				entity, got, want, a.Entity(entity).DaysObserved())
		}
	}
}
