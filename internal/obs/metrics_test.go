package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("autoglobe_test_total", "kind", "a")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Same (name, labels) resolves to the same series.
	if r.Counter("autoglobe_test_total", "kind", "a") != c {
		t.Fatal("counter lookup did not return the same series")
	}
	// Label order must not matter.
	c2 := r.Counter("autoglobe_test_total", "b", "2", "a", "1")
	if r.Counter("autoglobe_test_total", "a", "1", "b", "2") != c2 {
		t.Fatal("label order changed series identity")
	}

	g := r.Gauge("autoglobe_test_gauge")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", LatencySecondsBuckets())
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must record nothing")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("autoglobe_test_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	want := map[string]float64{
		`autoglobe_test_seconds_bucket{le="0.1"}`:  2, // 0.05 and the exactly-at-bound 0.1
		`autoglobe_test_seconds_bucket{le="1"}`:    3,
		`autoglobe_test_seconds_bucket{le="10"}`:   4,
		`autoglobe_test_seconds_bucket{le="+Inf"}`: 5,
		`autoglobe_test_seconds_count`:             5,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %v, want %v", k, snap[k], v)
		}
	}
	if got := snap["autoglobe_test_seconds_sum"]; math.Abs(got-55.65) > 1e-9 {
		t.Errorf("sum = %v, want 55.65", got)
	}
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("autoglobe_test_seconds", []float64{0.1, 1, 10}, "stage", "merge")
	if _, ok := r.Quantile("autoglobe_test_seconds", 0.5, "stage", "merge"); ok {
		t.Error("empty histogram reported a quantile")
	}
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.2, 0.05}, // rank 1 of 2 in [0, 0.1]
		{0.5, 0.55}, // rank 2.5: half-way into the single sample of (0.1, 1]
		{0.8, 10},   // rank 4: the upper edge of (1, 10]
		{1, 10},     // past the last bound: the bound
	} {
		if got, ok := r.Quantile("autoglobe_test_seconds", tc.q, "stage", "merge"); !ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("q%.1f = %v (ok=%v), want %v", tc.q, got, ok, tc.want)
		}
	}
	// Asking never registers: unknown series and non-histograms are absent.
	r.Counter("autoglobe_test_total").Inc()
	before := len(r.Snapshot())
	if _, ok := r.Quantile("autoglobe_test_seconds", 0.5, "stage", "decide"); ok {
		t.Error("unknown series reported a quantile")
	}
	if _, ok := r.Quantile("autoglobe_test_total", 0.5); ok {
		t.Error("counter reported a quantile")
	}
	if _, ok := (*Registry)(nil).Quantile("autoglobe_test_seconds", 0.5); ok {
		t.Error("nil registry reported a quantile")
	}
	if after := len(r.Snapshot()); after != before {
		t.Errorf("Quantile registered series: %d -> %d", before, after)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("autoglobe_conc_total").Inc()
				r.Gauge("autoglobe_conc_gauge").Add(1)
				r.Histogram("autoglobe_conc_seconds", LatencySecondsBuckets()).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("autoglobe_conc_total").Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := r.Gauge("autoglobe_conc_gauge").Value(); got != 8000 {
		t.Fatalf("gauge = %v, want 8000", got)
	}
	if got := r.Histogram("autoglobe_conc_seconds", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %v, want 8000", got)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("autoglobe_clash")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two kinds must panic")
		}
	}()
	r.Gauge("autoglobe_clash")
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("autoglobe_esc_total", "path", `a"b\c`+"\n").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `path="a\"b\\c\n"`) {
		t.Fatalf("labels not escaped:\n%s", sb.String())
	}
}
