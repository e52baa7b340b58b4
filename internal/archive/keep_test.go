package archive

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"autoglobe/internal/obs"
	"autoglobe/internal/tsdb"
)

// FuzzKeepProfilesMatchesLive is the differential oracle of the
// on-demand day profile: one history recorded into an archive that kept
// profiles from the start (live) and into one that turns them on only
// after the history (late), both in memory or both backed. The history
// has runs of minutes, repeated minutes, gaps, jumps across midnight,
// hourly compaction past a short retention and, backed, reopens, after
// which the live archive turns its profiles on again at once, as a
// reopened coordinator does.
//
// The late profile must equal the fold, in recorded order, of exactly
// the samples the store still holds raw, bit for bit (ProfileAt,
// ObservationCount, DaysObserved); and against the live one it must
// lack exactly the minutes compacted since the live profile was last
// built, and equal it bit for bit in every minute of day none of them
// fell on. A service instance reads empty on both sides.
func FuzzKeepProfilesMatchesLive(f *testing.F) {
	// In memory, retention 60: long runs past several compactions.
	f.Add([]byte{0, 0xf8, 0xf8, 0xf8, 0xf8, 0x0c, 0xf8, 0xf8, 0xf8})
	// Backed, retention 120: runs, a reopen, a jump across midnight,
	// repeats and gaps, another reopen.
	f.Add([]byte{3, 0xf8, 0xf8, 0x06, 0xf8, 0xf8, 0xff, 0xf8, 0x04, 0x04, 0x2d, 0xf8, 0xf8, 0x06, 0xf8})
	// Backed, retention 360 at a start late in the day: no compaction
	// before the jump, then two days of runs.
	f.Add([]byte{0xfb, 0x80, 0x06, 0x37, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8, 0xf8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		flags, ops := data[0], data[1:min(len(data), 257)]
		backed := flags&1 == 1
		retention := 60 * (1 + int(flags>>1)%6)
		opts := tsdb.Options{NoSync: true, SegmentBytes: 8 << 10}
		var dirs [2]string
		open := func(i int) *Archive {
			t.Helper()
			a, err := NewBacked(dirs[i], retention, opts)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		var live, late *Archive
		if backed {
			dirs = [2]string{t.TempDir(), t.TempDir()}
			live, late = open(0), open(1)
			defer func() { live.Close(); late.Close() }()
		} else {
			live, late = New(retention), New(retention)
		}
		keepProfiles(t, live)

		entities := []string{HostEntity("h"), ServiceEntity("s"), InstanceEntity("i")}
		history := make([][]Sample, len(entities))
		liveFrom := 0 // the minute watermark when the live profile was last built
		minute := int(flags) * 7
		record := func() {
			t.Helper()
			for e, entity := range entities {
				s := Sample{Minute: minute, CPU: float64((minute*131+e*977)%1009) / 997, Mem: 0.5}
				if err := live.Record(entity, s); err != nil {
					t.Fatal(err)
				}
				if err := late.Record(entity, s); err != nil {
					t.Fatal(err)
				}
				history[e] = append(history[e], s)
			}
			if err := live.Maintain(minute); err != nil {
				t.Fatal(err)
			}
			if err := late.Maintain(minute); err != nil {
				t.Fatal(err)
			}
		}
		for _, op := range ops {
			arg := int(op >> 3)
			switch op % 8 {
			case 4: // the same minute again
				record()
			case 5: // a gap
				minute += 2 + arg
			case 6: // a reopen; in memory, a gap of an hour
				if !backed {
					minute += 60
					continue
				}
				if err := live.Close(); err != nil {
					t.Fatal(err)
				}
				if err := late.Close(); err != nil {
					t.Fatal(err)
				}
				live, late = open(0), open(1)
				keepProfiles(t, live)
				liveFrom = live.Store().Watermark()
			case 7: // across midnight, and often past the retention
				minute += MinutesPerDay - 40 + 3*arg
			default: // a run of consecutive minutes
				for range 1 + arg {
					minute++
					record()
				}
			}
		}

		for _, entity := range entities {
			if late.Entity(entity).DaysObserved() != 0 || late.Entity(entity).ObservationCount(minute) != 0 {
				t.Fatalf("%s: a profile before KeepProfiles", entity)
			}
		}
		keepProfiles(t, late)
		wm := late.Store().Watermark()
		if got := live.Store().Watermark(); got != wm {
			t.Fatalf("watermarks differ: live %d, late %d", got, wm)
		}
		bits := math.Float64bits
		for e, entity := range entities {
			l, k := live.Entity(entity), late.Entity(entity)
			if l.Len() != k.Len() {
				t.Fatalf("%s: Len live %d, late %d", entity, l.Len(), k.Len())
			}
			// The reference: the raw survivors folded in recorded order,
			// and per minute of day the samples compacted since liveFrom.
			var sum [MinutesPerDay]float64
			var n, gone [MinutesPerDay]int
			for _, s := range history[e] {
				switch i := slot(s.Minute); {
				case s.Minute >= wm:
					sum[i] += s.CPU
					n[i]++
				case s.Minute >= liveFrom:
					gone[i]++
				}
			}
			profiled := profiled(entity)
			most, lost := 0, 0
			for m := range MinutesPerDay {
				want := 0.0
				if !profiled {
					n[m], gone[m] = 0, 0
				} else if n[m] > 0 {
					want = sum[m] / float64(n[m])
				}
				most, lost = max(most, n[m]), lost+gone[m]
				if k.ObservationCount(m) != n[m] || bits(k.ProfileAt(m)) != bits(want) {
					t.Fatalf("%s minute %d: late %v over %d, the raw survivors %v over %d",
						entity, m, k.ProfileAt(m), k.ObservationCount(m), want, n[m])
				}
				if d := l.ObservationCount(m) - k.ObservationCount(m); d != gone[m] {
					t.Fatalf("%s minute %d: the late profile lacks %d observations, %d were compacted", entity, m, d, gone[m])
				}
				if gone[m] == 0 && bits(l.ProfileAt(m)) != bits(k.ProfileAt(m)) {
					t.Fatalf("%s minute %d: live %v, late %v with nothing compacted", entity, m, l.ProfileAt(m), k.ProfileAt(m))
				}
			}
			if k.DaysObserved() != most || lost == 0 && l.DaysObserved() != most {
				t.Fatalf("%s: DaysObserved live %d, late %d, the raw survivors %d", entity, l.DaysObserved(), k.DaysObserved(), most)
			}
		}
	})
}

// fleet names hosts, as many service instances, and services.
func fleet(hosts, services int) []string {
	var names []string
	for i := range hosts {
		names = append(names, HostEntity(fmt.Sprintf("h%d", i)), InstanceEntity(fmt.Sprintf("i%d", i)))
	}
	for i := range services {
		names = append(names, ServiceEntity(fmt.Sprintf("s%d", i)))
	}
	return names
}

// feed records minutes 0..minutes-1 of every entity, with Maintain's
// commit and compaction after each.
func feed(tb testing.TB, a *Archive, names []string, minutes int) {
	tb.Helper()
	for m := range minutes {
		for e, name := range names {
			cpu, mem := dayLoad(e, m)
			if err := a.Record(name, Sample{Minute: m, CPU: cpu, Mem: mem}); err != nil {
				tb.Fatal(err)
			}
		}
		if err := a.Maintain(m); err != nil {
			tb.Fatal(err)
		}
	}
}

// writeFleet feeds the fleet into a backed archive in dir and closes it.
func writeFleet(tb testing.TB, dir string, names []string, minutes int) {
	tb.Helper()
	a, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	feed(tb, a, names, minutes)
	if err := a.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestReopenBuildsNoProfiles pins what a reopen costs when nothing reads
// a profile: it counts what it replays and builds no profile — less
// than one 17,280 B profile a host or service allocated in all, the
// gauge at 0 — until KeepProfiles builds every one of them.
func TestReopenBuildsNoProfiles(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are distorted by race instrumentation")
	}
	dir := t.TempDir()
	const n = 60 + 20
	writeFleet(t, dir, fleet(60, 20), 300)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	profile := uint64(unsafe.Sizeof(dayProfile{}))
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(n)*profile {
		t.Errorf("the reopen allocated %d B, want less than %d hosts and services × %d B", got, n, profile)
	}
	reg := obs.NewRegistry()
	a.Instrument(reg)
	if got := reg.Snapshot()[MetricProfiles]; got != 0 {
		t.Fatalf("%s = %v after a reopen nothing read, want 0", MetricProfiles, got)
	}
	if got := a.Entity(HostEntity("h0")).DaysObserved(); got != 0 {
		t.Fatalf("DaysObserved = %d before KeepProfiles, want 0", got)
	}
	if got := a.Entity(HostEntity("h0")).Len(); got != 300 {
		t.Fatalf("Len = %d after the reopen, want the 300 minutes replayed", got)
	}
	keepProfiles(t, a)
	if got := reg.Snapshot()[MetricProfiles]; got != float64(n) {
		t.Fatalf("%s = %v after KeepProfiles, want %d", MetricProfiles, got, n)
	}
	if got := a.Entity(HostEntity("h0")).DaysObserved(); got != 1 {
		t.Fatalf("DaysObserved = %d after KeepProfiles, want 1", got)
	}
}

// TestKeepProfilesRetriesAfterAFailedRead: a store read that fails
// leaves the archive without profiles — every read empty, the gauge at
// 0 — and a later call, once the store reads again, builds the profiles
// a first successful call would have.
func TestKeepProfilesRetriesAfterAFailedRead(t *testing.T) {
	dir, names := t.TempDir(), fleet(4, 2)
	writeFleet(t, dir, names, 300) // past two sealed blocks: the oldest is read from disk
	a, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	reg := obs.NewRegistry()
	a.Instrument(reg)
	segs, err := filepath.Glob(filepath.Join(dir, "min-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("minute segments %v, %v", segs, err)
	}
	// Empty the segments under the open store, then put them back.
	saved := make([][]byte, len(segs))
	for i, seg := range segs {
		if saved[i], err = os.ReadFile(seg); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.KeepProfiles(); err == nil {
		t.Fatal("KeepProfiles read sealed blocks from emptied segments")
	}
	for _, e := range a.Entities() {
		if a.Entity(e).DaysObserved() != 0 || a.Entity(e).ObservationCount(0) != 0 {
			t.Fatalf("%s: a profile after a failed KeepProfiles", e)
		}
	}
	if got := reg.Snapshot()[MetricProfiles]; got != 0 {
		t.Fatalf("%s = %v after a failed KeepProfiles, want 0", MetricProfiles, got)
	}
	for i, seg := range segs {
		if err := os.WriteFile(seg, saved[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keepProfiles(t, a)
	if got := reg.Snapshot()[MetricProfiles]; got != 6 {
		t.Fatalf("%s = %v after the retry, want 6", MetricProfiles, got)
	}
	ref := New(0)
	keepProfiles(t, ref)
	feed(t, ref, names, 300)
	for _, e := range names {
		if (a.Entity(e).DaysObserved() > 0) != profiled(e) || !slices.Equal(a.DayProfile(e), ref.DayProfile(e)) {
			t.Fatalf("%s: the retried profile differs from one kept from the start", e)
		}
	}
}

// BenchmarkReopen is a coordinator's store reopen of 80 hosts and
// services and 60 instances holding a day each: unread, the counting
// replay alone; kept, that and the profile build a forecaster asks for.
func BenchmarkReopen(b *testing.B) {
	dir := b.TempDir()
	writeFleet(b, dir, fleet(60, 20), MinutesPerDay)
	for _, kept := range []bool{false, true} {
		name := "unread"
		if kept {
			name = "kept"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a, err := NewBacked(dir, 0, tsdb.Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if kept {
					if err := a.KeepProfiles(); err != nil {
						b.Fatal(err)
					}
				}
				a.Close()
			}
		})
	}
}
