package monitor

import "testing"

// BenchmarkObserve times one sample through ObserveWatch on a calm host
// (no watch ever opens), on a host at 0.9 that confirms an overload
// every 11 minutes, and with memory watching on beside it.
func BenchmarkObserve(b *testing.B) {
	memOn := PaperParams()
	memOn.MemOverloadThreshold = 0.9
	for _, c := range []struct {
		name     string
		params   Params
		cpu, mem float64
	}{
		{"calm", PaperParams(), 0.5, 0.4},
		{"overload", PaperParams(), 0.9, 0.4},
		{"memory", memOn, 0.9, 0.95},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := NewSystem(c.params, nil)
			if err != nil {
				b.Fatal(err)
			}
			h := s.Register("host/Blade1", Server, 1)
			var trs []Trigger
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if trs, err = s.ObserveWatch(trs[:0], h, i, c.cpu, c.mem); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
