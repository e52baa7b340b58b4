// Package obs is AutoGlobe's zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with Prometheus text-format exposition, a ring-buffered
// structured trace-event stream that records each control-loop
// iteration end-to-end, and the HTTP surface (/autoglobe/v1/metrics,
// /autoglobe/v1/traces, /healthz) the daemons mount.
//
// The paper's administration loop only works because operators can see
// it working — load monitors, advisors, the load archive and the fuzzy
// controller's rule provenance form an observable pipeline. This
// package threads the same visibility through the distributed control
// plane: the wire transports, the agents and dispatcher, the monitor's
// watch state machines and the controller's decisions all report here.
//
// Everything is nil-safe: a component handed a nil *Registry or nil
// *Tracer records nothing at (close to) zero cost, so instrumentation
// can stay unconditionally in place on hot paths.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil counter is a
// valid no-op, so call sites need no guards.
type Counter struct{ bits atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down. The nil gauge is a valid
// no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observe is allocation-free and two atomic operations, so histograms
// may sit on hot paths. The nil histogram is a valid no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, cumulative on read only
	sum    atomic.Uint64   // float64 bits
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0 // the first bound >= v (le semantics), NaN past the last, as sort.SearchFloat64s finds it
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations: the sum of the buckets.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencySecondsBuckets spans loopback microseconds to multi-second
// network retries.
func LatencySecondsBuckets() []float64 {
	return []float64{1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 5e-1, 1, 2.5, 5}
}

// metricKind tags a registered family for the # TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// series is one registered time series (family + label set).
type series struct {
	family string // metric family name, without labels
	labels string // rendered `{k="v",...}` or ""
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// key is the unique series identity.
func (s *series) key() string { return s.family + s.labels }

// Registry is a concurrency-safe metrics registry. Lookups return the
// same series for the same (name, labels) pair, so call sites may
// resolve once at construction time (preferred on hot paths) or on
// every use. The nil registry hands out nil instruments, which record
// nothing.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
	help   map[string]string // family -> HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]*series),
		help:   make(map[string]string),
	}
}

// Help sets the HELP text of a metric family, emitted ahead of the
// family's first sample in the exposition.
func (r *Registry) Help(family, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = text
}

// renderLabels joins label pairs into a deterministic `{...}` suffix.
// Pairs are (key, value) alternating; keys are sorted; values are
// escaped per the Prometheus text format.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: label pairs must alternate key, value")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes backslash, double quote and newline, as the
// Prometheus text format requires.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// lookup returns (creating if needed) the series for a family+labels,
// checking that a name is not reused with a different kind.
func (r *Registry) lookup(family string, kind metricKind, labels []string, mk func() *series) *series {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[family+ls]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", family+ls, s.kind, kind))
		}
		return s
	}
	s := mk()
	s.family, s.labels, s.kind = family, ls, kind
	r.series[s.key()] = s
	return s
}

// Counter returns the counter for the family and label pairs, creating
// it on first use. Labels alternate key, value.
func (r *Registry) Counter(family string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(family, kindCounter, labels, func() *series { return &series{c: &Counter{}} }).c
}

// Gauge returns the gauge for the family and label pairs.
func (r *Registry) Gauge(family string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(family, kindGauge, labels, func() *series { return &series{g: &Gauge{}} }).g
}

// Histogram returns the histogram for the family and label pairs. The
// bucket bounds are fixed on first registration; later lookups of the
// same series ignore the argument.
func (r *Registry) Histogram(family string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(family, kindHistogram, labels, func() *series {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		return &series{h: &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}}
	}).h
}

// Quantile estimates the q-quantile (0 < q <= 1) of an existing
// histogram series by linear interpolation inside its bucket, as
// Prometheus's histogram_quantile does; a quantile past the last bound
// reports that bound. It never creates a series: ok is false when the
// series does not exist, is not a histogram or has no observations.
func (r *Registry) Quantile(family string, q float64, labels ...string) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	s := r.series[family+renderLabels(labels)]
	r.mu.Unlock()
	if s == nil || s.kind != kindHistogram || s.h.Count() == 0 {
		return 0, false
	}
	h := s.h
	rank := q * float64(h.Count())
	var cum, lower float64
	for i, bound := range h.bounds {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			return lower + (bound-lower)*(rank-cum)/n, true
		}
		cum += n
		lower = bound
	}
	return lower, true
}

// formatValue renders a sample value the way Prometheus text format
// expects (shortest float64 representation, +Inf/-Inf/NaN spelled out).
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices an `le` pair into a rendered label suffix.
func mergeLabels(rendered, le string) string {
	pair := `le="` + le + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, one # TYPE line per
// family (preceded by # HELP when set), series sorted by label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	sort.Slice(all, func(i, j int) bool {
		if all[i].family != all[j].family {
			return all[i].family < all[j].family
		}
		return all[i].labels < all[j].labels
	})

	var sb strings.Builder
	lastFamily := ""
	for _, s := range all {
		if s.family != lastFamily {
			if h, ok := help[s.family]; ok {
				fmt.Fprintf(&sb, "# HELP %s %s\n", s.family, h)
			}
			fmt.Fprintf(&sb, "# TYPE %s %s\n", s.family, s.kind)
			lastFamily = s.family
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s%s %s\n", s.family, s.labels, formatValue(s.c.Value()))
		case kindGauge:
			fmt.Fprintf(&sb, "%s%s %s\n", s.family, s.labels, formatValue(s.g.Value()))
		case kindHistogram:
			var cum uint64
			for i, b := range s.h.bounds {
				cum += s.h.counts[i].Load()
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", s.family, mergeLabels(s.labels, formatValue(b)), cum)
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", s.family, mergeLabels(s.labels, "+Inf"), cum)
			fmt.Fprintf(&sb, "%s_sum%s %s\n", s.family, s.labels, formatValue(s.h.Sum()))
			fmt.Fprintf(&sb, "%s_count%s %d\n", s.family, s.labels, cum) // the +Inf bucket
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Snapshot flattens every series into name{labels} -> value, histograms
// expanded into _bucket/_sum/_count entries — the assertion surface for
// tests, mirroring exactly what the exposition would report.
func (r *Registry) Snapshot() map[string]float64 {
	out := make(map[string]float64)
	if r == nil {
		return out
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.Unlock()
	for _, s := range all {
		switch s.kind {
		case kindCounter:
			out[s.key()] = s.c.Value()
		case kindGauge:
			out[s.key()] = s.g.Value()
		case kindHistogram:
			var cum uint64
			for i, b := range s.h.bounds {
				cum += s.h.counts[i].Load()
				out[s.family+"_bucket"+mergeLabels(s.labels, formatValue(b))] = float64(cum)
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			out[s.family+"_bucket"+mergeLabels(s.labels, "+Inf")] = float64(cum)
			out[s.family+"_sum"+s.labels] = s.h.Sum()
			out[s.family+"_count"+s.labels] = float64(cum)
		}
	}
	return out
}
