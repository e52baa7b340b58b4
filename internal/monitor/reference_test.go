package monitor

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"autoglobe/internal/obs"
)

// This file holds the reference machine the production monitor is
// checked against: the watch state machine written out once for CPU and
// once for memory. The fuzz target drives the reference and the
// production code with one schedule and demands equal answers after
// every step. (The liveness detector's reference is in liveness_test.go.)

// refWatcher is one entity's watch state, CPU and memory side by side.
type refWatcher struct {
	class     Class
	perfIndex float64
	mode      watchMode
	start     int
	sum       float64
	n         int

	memMode  watchMode
	memStart int
	memSum   float64
	memN     int
}

// refSystem is the reference load monitoring system for one entity.
type refSystem struct {
	params  Params
	metrics *monitorMetrics
	w       refWatcher
}

func (s *refSystem) observe(dst []Trigger, entity string, minute int, cpu, mem float64) []Trigger {
	w := &s.w
	idleThr := s.params.IdleThreshold(w.perfIndex)
	n := len(dst)
	if thr := s.params.MemOverloadThreshold; thr > 0 {
		switch w.memMode {
		case watchNone:
			if mem > thr {
				w.memMode = watchOverload
				w.memStart = minute
				w.memSum, w.memN = mem, 1
				s.metrics.observe()
				if s.params.OverloadWatch == 0 {
					dst = append(dst, s.confirmMem(entity, minute, mem))
				}
			}
		case watchOverload:
			w.memSum += mem
			w.memN++
			if minute-w.memStart >= s.params.OverloadWatch {
				if avg := w.memSum / float64(w.memN); avg > thr {
					dst = append(dst, s.confirmMem(entity, minute, avg))
				} else {
					w.memMode = watchNone
					s.metrics.expire()
				}
			}
		}
	}

	switch w.mode {
	case watchNone:
		switch {
		case cpu > s.params.OverloadThreshold:
			w.mode = watchOverload
			w.start = minute
			w.sum, w.n = cpu, 1
			s.metrics.observe()
			if s.params.OverloadWatch == 0 {
				return append(dst[:n], s.confirm(entity, minute, cpu))
			}
		case cpu < idleThr:
			w.mode = watchIdle
			w.start = minute
			w.sum, w.n = cpu, 1
			s.metrics.observe()
			if s.params.IdleWatch == 0 {
				return append(dst[:n], s.confirm(entity, minute, cpu))
			}
		}
	case watchOverload:
		w.sum += cpu
		w.n++
		if minute-w.start < s.params.OverloadWatch {
			return dst
		}
		avg := w.sum / float64(w.n)
		if avg > s.params.OverloadThreshold {
			return append(dst[:n], s.confirm(entity, minute, avg))
		}
		w.mode = watchNone
		s.metrics.expire()
	case watchIdle:
		w.sum += cpu
		w.n++
		if minute-w.start < s.params.IdleWatch {
			return dst
		}
		avg := w.sum / float64(w.n)
		if avg < idleThr {
			return append(dst[:n], s.confirm(entity, minute, avg))
		}
		w.mode = watchNone
		s.metrics.expire()
	}
	return dst
}

func (s *refSystem) confirm(entity string, minute int, avg float64) Trigger {
	w := &s.w
	var kind TriggerKind
	switch {
	case w.class == Server && w.mode == watchOverload:
		kind = ServerOverloaded
	case w.class == Server && w.mode == watchIdle:
		kind = ServerIdle
	case w.class == Service && w.mode == watchOverload:
		kind = ServiceOverloaded
	default:
		kind = ServiceIdle
	}
	start := w.start
	w.mode = watchNone
	w.sum, w.n = 0, 0
	s.metrics.confirm()
	return Trigger{Kind: kind, Entity: entity, Minute: minute, AvgLoad: avg, WatchedFrom: start}
}

func (s *refSystem) confirmMem(entity string, minute int, avg float64) Trigger {
	w := &s.w
	kind := ServiceOverloaded
	if w.class == Server {
		kind = ServerOverloaded
	}
	start := w.memStart
	w.memMode = watchNone
	w.memSum, w.memN = 0, 0
	s.metrics.confirm()
	return Trigger{Kind: kind, Entity: entity, Minute: minute, AvgLoad: avg,
		WatchedFrom: start, Resource: "memory"}
}

// counts reads the observed, confirmed and expired counters.
func (m *monitorMetrics) counts() [3]float64 {
	return [3]float64{m.observed.Value(), m.confirmed.Value(), m.expired.Value()}
}

// fuzzBytes hands out a fuzz input a piece at a time; an exhausted
// input reads as zeros.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// load reads a sample: mostly a grid over [0, 1.27] that straddles
// every threshold, sometimes a value no host reports (−0, a negative,
// NaN, ±Inf) or eight raw bytes.
func (b *fuzzBytes) load() float64 {
	v := b.byte()
	switch {
	case v < 128:
		return float64(v) / 100
	case v < 160:
		return float64(v-128) / 4
	}
	switch v % 8 {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return -float64(v) / 100
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1)
	case 4:
		return math.Inf(-1)
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = b.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

// sameTriggers reports whether two trigger lists are equal field by
// field, AvgLoad and Confidence by their bits.
func sameTriggers(a, b []Trigger) bool {
	return slices.EqualFunc(a, b, func(x, y Trigger) bool {
		return x.Kind == y.Kind && x.Entity == y.Entity && x.Minute == y.Minute &&
			math.Float64bits(x.AvgLoad) == math.Float64bits(y.AvgLoad) &&
			x.WatchedFrom == y.WatchedFrom && x.Resource == y.Resource &&
			math.Float64bits(x.Confidence) == math.Float64bits(y.Confidence)
	})
}

// FuzzWatchMatchesReference feeds one entity random CPU and memory
// samples under random Params — watch times of 0 included, memory
// watching on and off, any performance index — through ObserveWatch
// and through the reference machine, and demands the same triggers,
// the same Watching answer and the same watch counters after every
// sample. Some calls pass a dst that already holds a trigger, so the
// precedence of CPU over memory at dst[n] is checked too.
func FuzzWatchMatchesReference(f *testing.F) {
	f.Add([]byte{69, 31, 0, 10, 20, 100, 0, 1, 95, 40, 1, 95, 40, 1, 95, 40, 1, 95, 40})
	f.Add([]byte{69, 31, 89, 3, 5, 100, 1, 1, 95, 95, 1, 95, 95, 1, 95, 95, 1, 95, 95, 1, 95, 95})
	f.Add([]byte{49, 60, 49, 0, 0, 42, 0, 1, 160, 161, 1, 162, 163, 0, 164, 165, 1, 1, 168, 2, 50})
	f.Add([]byte{99, 255, 99, 2, 1, 170, 1, 1, 0, 0, 1, 0, 0, 1, 250, 0, 1, 0, 0, 2, 0, 0})
	// An average exactly at the threshold (0.75 and 0.25 under 0.5) expires.
	f.Add([]byte{49, 50, 0, 1, 20, 100, 0, 1, 75, 40, 1, 25, 40})
	// A negative memory sample opens no idle watch.
	f.Add([]byte{69, 50, 89, 10, 0, 100, 0, 1, 50, 161})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		params := Params{
			OverloadThreshold: float64(in.byte()%100+1) / 100,
			IdleThresholdBase: float64(in.byte()) / 400,
		}
		if v := in.byte(); v%2 == 1 {
			params.MemOverloadThreshold = float64(v%100+1) / 100
		}
		params.OverloadWatch, params.IdleWatch = int(in.byte()%13), int(in.byte()%23)
		perf := in.load()
		class := Class(in.byte() % 2)

		r, rr := obs.NewRegistry(), obs.NewRegistry()
		s, err := NewSystem(params, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.Instrument(r)
		h := s.Register("e", class, perf)
		ref := &refSystem{params: params, metrics: newMonitorMetrics(rr),
			w: refWatcher{class: class, perfIndex: perf}}

		prior := Trigger{Kind: ServiceIdle, Entity: "prior", Minute: -1}
		minute := 0
		for step := 0; len(in) > 0 && step < 512; step++ {
			op := in.byte()
			minute += []int{0, 1, 1, 1, 1, 2, 5, 1}[op%8]
			cpu, mem := in.load(), in.load()
			var dst, want []Trigger
			if op&8 != 0 {
				dst, want = []Trigger{prior}, []Trigger{prior}
			}
			got, err := s.ObserveWatch(dst, h, minute, cpu, mem)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			want = ref.observe(want, "e", minute, cpu, mem)
			if !sameTriggers(got, want) {
				t.Fatalf("step %d minute %d cpu %v mem %v: triggers %+v, reference %+v",
					step, minute, cpu, mem, got, want)
			}
			if s.Watching("e") != (ref.w.mode != watchNone) {
				t.Fatalf("step %d minute %d: Watching %t, reference mode %d", step, minute, s.Watching("e"), ref.w.mode)
			}
			if a, b := s.metrics.counts(), ref.metrics.counts(); a != b {
				t.Fatalf("step %d minute %d: watch counters %v, reference %v", step, minute, a, b)
			}
		}
	})
}
