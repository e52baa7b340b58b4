package archive

import (
	"testing"

	"autoglobe/internal/tsdb"
)

// BenchmarkRecord is one simulated minute of one host in an in-memory
// archive, as the simulator records it: the sample, then Maintain —
// which seals a full block every 64 minutes and compacts hourly behind
// the retention, so the history stays bounded however long the run.
func BenchmarkRecord(b *testing.B) {
	a := New(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.Record("host/Blade1", Sample{Minute: i, CPU: 0.5, Mem: 0.4}); err != nil {
			b.Fatal(err)
		}
		if err := a.Maintain(i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAverageWatchWindow is the controller's typical query, a
// 10-minute watch window ending now, over history that fills the
// default retention exactly and over one sample more (where a wrapped
// ring once copied itself whole first: 103,680 B a call).
func BenchmarkAverageWatchWindow(b *testing.B) {
	for _, c := range []struct {
		name    string
		samples int
	}{{"exact-ring", DefaultRetention}, {"full-ring", DefaultRetention + 1}} {
		samples := c.samples
		b.Run(c.name, func(b *testing.B) {
			a := New(0)
			for m := 0; m < samples; m++ {
				a.Record("h", Sample{Minute: m, CPU: 0.5})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, _ := a.AverageCPU("h", samples-11, samples-1); !ok {
					b.Fatal("no data")
				}
			}
		})
	}
}

// BenchmarkLatest is server selection's read of every candidate host:
// its newest sample, by name, from an in-memory and a backed archive
// holding two days of it.
func BenchmarkLatest(b *testing.B) {
	backed, err := NewBacked(b.TempDir(), 0, tsdb.Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer backed.Close()
	for _, c := range []struct {
		name string
		a    *Archive
	}{{"in-memory", New(0)}, {"backed", backed}} {
		a := c.a
		for m := 0; m < 2*MinutesPerDay; m++ {
			if err := a.Record("host/Blade1", Sample{Minute: m, CPU: 0.5}); err != nil {
				b.Fatal(err)
			}
		}
		if err := a.Commit(); err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := a.Latest("host/Blade1"); !ok {
					b.Fatal("no data")
				}
			}
		})
	}
}

func BenchmarkDayProfile(b *testing.B) {
	a := New(0)
	keepProfiles(b, a)
	for m := 0; m < 3*MinutesPerDay; m++ {
		a.Record("h", Sample{Minute: m, CPU: 0.5})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DayProfile("h")
	}
}
