// Package monitor implements AutoGlobe's monitoring pipeline (Figure 2):
// load monitors measure every server and every service; advisors keep an
// up-to-date local view and report threshold violations; the load
// monitoring system observes a candidate exceptional situation for a
// tunable watchTime and, only if the average load during the watch time
// stays past the threshold, confirms a real overload (or idle) situation
// and triggers the fuzzy controller. This filtering exists because "in
// real systems short load peaks are quite common. Immediate reaction on
// these peaks could lead to an unsettled and instable system."
package monitor

import (
	"fmt"
	"math"

	"autoglobe/internal/archive"
)

// Class says whether an observed entity is a server or a service; the
// controller dispatches to different rule bases per class (Section 4.1).
type Class int

const (
	// Server entities are hosts.
	Server Class = iota
	// Service entities are service instances (aggregated per service).
	Service
)

// TriggerKind enumerates the four exceptional situations of Section 4.1.
type TriggerKind string

// The four trigger kinds, each with its own controller rule base.
const (
	ServiceOverloaded TriggerKind = "serviceOverloaded"
	ServiceIdle       TriggerKind = "serviceIdle"
	ServerOverloaded  TriggerKind = "serverOverloaded"
	ServerIdle        TriggerKind = "serverIdle"
)

// Forecast trigger kinds (the paper's Section 7 extension): raised by
// the controller's proactive scan from *predicted* load, before any
// monitor confirms a measured overload. They carry their own rule
// bases, deliberately more conservative than the reactive ones, and
// never page an administrator when unremedied — the measured-overload
// path is still behind them as a safety net.
const (
	ServiceForecastOverload TriggerKind = "serviceForecastOverload"
	ServerForecastOverload  TriggerKind = "serverForecastOverload"
)

// Forecast reports whether the kind is a proactive (predicted-load)
// trigger rather than a confirmed measured situation.
func (k TriggerKind) Forecast() bool {
	return k == ServiceForecastOverload || k == ServerForecastOverload
}

// Trigger is a confirmed exceptional situation handed to the controller.
type Trigger struct {
	Kind TriggerKind
	// Entity is the host name (server triggers) or service name
	// (service triggers).
	Entity string
	// Minute is when the situation was confirmed.
	Minute int
	// AvgLoad is the average load during the watch time.
	AvgLoad float64
	// WatchedFrom is the minute observation started; the controller
	// initializes its load variables with archive averages over
	// [WatchedFrom, Minute].
	WatchedFrom int
	// Resource names what overflowed: "cpu" (default) or "memory".
	Resource string
	// Confidence rates the evidence behind a forecast trigger in
	// [0, 1] (per-minute-of-day observation depth of the profile the
	// prediction came from). Measured triggers carry 0; the controller
	// ignores the field for them.
	Confidence float64
}

// String renders the trigger for logs and event notes. Every argument
// is a plain string or number, which fmt prints without a type
// assertion (whose runtime cache grows at random moments).
func (t Trigger) String() string {
	if t.Kind.Forecast() {
		return fmt.Sprintf("%s(%s) peak=%.2f conf=%.2f at minute %d", string(t.Kind), t.Entity, t.AvgLoad, t.Confidence, t.Minute)
	}
	return fmt.Sprintf("%s(%s) avg=%.2f at minute %d", string(t.Kind), t.Entity, t.AvgLoad, t.Minute)
}

// Params are the tunables of the load monitoring system. The paper's
// simulation studies use: overload threshold 70 %, overload watchTime
// 10 min, idle threshold 12.5 % divided by the performance index of the
// server, idle watchTime 20 min.
type Params struct {
	OverloadThreshold float64
	OverloadWatch     int // minutes
	IdleThresholdBase float64
	IdleWatch         int // minutes
	// MemOverloadThreshold enables memory-overload watching when
	// positive (the paper quantifies only the CPU threshold; memory
	// watching is available but off by default). The CPU watch time is
	// reused.
	MemOverloadThreshold float64
}

// PaperParams returns the parameters of Section 5.1.
func PaperParams() Params {
	return Params{
		OverloadThreshold: 0.70,
		OverloadWatch:     10,
		IdleThresholdBase: 0.125,
		IdleWatch:         20,
	}
}

// IdleThreshold returns the idle threshold for an entity with the given
// performance index ("12.5 % divided by the performance index of the
// server"). Services observe against the base threshold (index 1).
func (p Params) IdleThreshold(perfIndex float64) float64 {
	if perfIndex <= 0 {
		perfIndex = 1
	}
	return p.IdleThresholdBase / perfIndex
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.OverloadThreshold <= 0 || p.OverloadThreshold > 1:
		return fmt.Errorf("monitor: overload threshold %g outside (0, 1]", p.OverloadThreshold)
	case p.OverloadWatch < 0 || p.IdleWatch < 0:
		return fmt.Errorf("monitor: negative watch time")
	case p.IdleThresholdBase < 0:
		return fmt.Errorf("monitor: negative idle threshold")
	case p.MemOverloadThreshold < 0 || p.MemOverloadThreshold > 1:
		return fmt.Errorf("monitor: memory overload threshold %g outside [0, 1]", p.MemOverloadThreshold)
	}
	return nil
}

type watchMode int

const (
	watchNone watchMode = iota
	watchOverload
	watchIdle
)

// watch is one resource's watchTime state machine: a sample past a
// threshold opens it, and once the watch time has passed, the average
// of the samples since either confirms the situation or the watch
// expires.
type watch struct {
	mode     watchMode
	start, n int
	sum      float64
}

// step feeds one sample v: it opens an overload watch when v > over and
// an idle watch when v < idle. Once the watch time has passed (overWatch
// or idleWatch minutes since the opening; 0 judges the opening sample)
// the average confirms the situation (avg > over, avg < idle) or the
// watch expires. A confirmation returns the watch as it stood and its
// average; otherwise step returns a zero watch.
func (w *watch) step(m *monitorMetrics, minute int, v, over, idle float64, overWatch, idleWatch int) (watch, float64) {
	if w.mode == watchNone {
		switch {
		case v > over:
			w.mode = watchOverload
		case v < idle:
			w.mode = watchIdle
		default:
			return watch{}, 0
		}
		w.start, w.sum, w.n = minute, v, 1
		m.observe()
	} else {
		w.sum += v
		w.n++
	}
	wait := overWatch
	if w.mode == watchIdle {
		wait = idleWatch
	}
	if minute-w.start < wait {
		return watch{}, 0
	}
	avg := w.sum / float64(w.n)
	confirmed := *w
	*w = watch{}
	if confirmed.mode == watchOverload && avg > over || confirmed.mode == watchIdle && avg < idle {
		m.confirm()
		return confirmed, avg
	}
	m.expire()
	return watch{}, 0
}

// watcher is one entity's watch state: CPU and memory are watched
// independently, each by its own watch.
type watcher struct {
	entity    string         // "" once deregistered or re-registered
	log       archive.Entity // the entity's archive write handle
	class     Class
	perfIndex float64
	cpu, mem  watch
}

// System is the load monitoring system: it consumes the advisors'
// measurements, maintains watch state per entity, records everything in
// the load archive, and emits confirmed triggers.
type System struct {
	params   Params
	archive  *archive.Archive
	watchers map[string]*watcher
	metrics  *monitorMetrics
}

// NewSystem builds a load monitoring system writing to the given archive
// (a fresh default archive when nil).
func NewSystem(params Params, arch *archive.Archive) (*System, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if arch == nil {
		arch = archive.New(0)
	}
	return &System{
		params:   params,
		archive:  arch,
		watchers: make(map[string]*watcher),
	}, nil
}

// Archive returns the load archive the system records into.
func (s *System) Archive() *archive.Archive { return s.archive }

// Watch is the resolved handle of one registered entity: its watcher and
// the watcher's archive write handle. It lives as long as the
// registration: a re-Register resets the watch state behind it,
// Deregister kills it, and observing through a dead or zero handle is an
// error, never a silent write. Drop cached handles where you deregister.
type Watch struct{ w *watcher }

// Live reports whether the handle's entity is still registered.
func (h Watch) Live() bool { return h.w != nil && h.w.entity != "" }

// Watch resolves the handle of an entity: dead when it is not registered.
func (s *System) Watch(entity string) Watch { return Watch{s.watchers[entity]} }

// Register announces an entity with its class and performance index
// (hosts: their index; services: 1), creating its archive log, and
// returns its handle. Registration resets watch state.
func (s *System) Register(entity string, class Class, perfIndex float64) Watch {
	w, ok := s.watchers[entity]
	if !ok {
		w = new(watcher)
		s.watchers[entity] = w
	}
	*w = watcher{entity: entity, log: s.archive.Resolve(entity), class: class, perfIndex: perfIndex}
	return Watch{w}
}

// Deregister removes an entity (e.g. a stopped service).
func (s *System) Deregister(entity string) {
	if w, ok := s.watchers[entity]; ok {
		w.entity = ""
		delete(s.watchers, entity)
	}
}

// Watching reports whether the entity is currently under observation.
func (s *System) Watching(entity string) bool {
	w, ok := s.watchers[entity]
	return ok && w.cpu.mode != watchNone
}

// Observe feeds one measurement of a registered entity by name —
// ObserveWatch for callers that do not keep the handle — and returns the
// confirmed trigger, or nil.
func (s *System) Observe(entity string, minute int, cpu, mem float64) (*Trigger, error) {
	h := s.Watch(entity)
	if !h.Live() {
		return nil, fmt.Errorf("monitor: entity %q not registered", entity)
	}
	trs, err := s.ObserveWatch(nil, h, minute, cpu, mem) // allocates only what confirms
	if len(trs) == 0 {
		return nil, err
	}
	return &trs[0], err
}

// ObserveWatch feeds one measurement (the load monitor's report for the
// current minute). It records the sample in the archive and advances the
// watch state machine; a trigger it confirms is appended to dst, which
// it returns — dst as it was when nothing confirms or the sample is
// refused. Callers keep a minute's triggers in a slice they reuse, so a
// confirmation allocates nothing.
//
// The advisor step is the threshold comparison at the top of the state
// machine: only when a measurement exceeds the overload threshold (or
// falls below the idle threshold) does observation start.
func (s *System) ObserveWatch(dst []Trigger, h Watch, minute int, cpu, mem float64) ([]Trigger, error) {
	if !h.Live() {
		return dst, fmt.Errorf("monitor: observation through a dead watch handle")
	}
	w := h.w
	if err := w.log.Record(archive.Sample{Minute: minute, CPU: cpu, Mem: mem}); err != nil {
		return dst, err
	}

	// Memory watching (when enabled) runs beside the CPU watch, with the
	// CPU watch time, and never idles. A CPU situation confirmed in the
	// same minute takes precedence: it replaces the memory trigger at
	// dst[n]. Two watches that open in the same minute confirm and
	// reopen together, so a memory overload that began with a CPU one
	// never shows while the CPU overload lasts.
	n, p := len(dst), &s.params
	if thr := p.MemOverloadThreshold; thr > 0 {
		c, avg := w.mem.step(s.metrics, minute, mem, thr, math.Inf(-1), p.OverloadWatch, 0)
		if c.mode != watchNone {
			dst = append(dst, w.trigger(c, minute, avg, "memory"))
		}
	}
	c, avg := w.cpu.step(s.metrics, minute, cpu, p.OverloadThreshold, p.IdleThreshold(w.perfIndex), p.OverloadWatch, p.IdleWatch)
	if c.mode != watchNone {
		dst = append(dst[:n], w.trigger(c, minute, avg, ""))
	}
	return dst, nil
}

// trigger builds the trigger a confirmed watch c raises: its kind comes
// from the entity's class and the watch's mode, and resource names what
// overflowed ("" for CPU).
func (w *watcher) trigger(c watch, minute int, avg float64, resource string) Trigger {
	kind := ServiceIdle
	switch {
	case w.class == Server && c.mode == watchOverload:
		kind = ServerOverloaded
	case w.class == Server:
		kind = ServerIdle
	case c.mode == watchOverload:
		kind = ServiceOverloaded
	}
	return Trigger{Kind: kind, Entity: w.entity, Minute: minute, AvgLoad: avg,
		WatchedFrom: c.start, Resource: resource}
}
