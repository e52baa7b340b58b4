package archive

import "testing"

func BenchmarkRecord(b *testing.B) {
	a := New(0)
	for i := 0; i < b.N; i++ {
		if err := a.Record("host/Blade1", Sample{Minute: i, CPU: 0.5, Mem: 0.4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAverageWatchWindow is the controller's typical query, a
// 10-minute watch window ending now: on a ring filled exactly to its
// capacity (three days), and on one that has wrapped (one sample more —
// where every call used to copy the whole ring first: 103,680 B).
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

func BenchmarkDayProfile(b *testing.B) {
	a := New(0)
	for m := 0; m < 3*MinutesPerDay; m++ {
		a.Record("h", Sample{Minute: m, CPU: 0.5})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.DayProfile("h")
	}
}
