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

func (t Trigger) String() string {
	if t.Kind.Forecast() {
		return fmt.Sprintf("%s(%s) peak=%.2f conf=%.2f at minute %d", t.Kind, t.Entity, t.AvgLoad, t.Confidence, t.Minute)
	}
	return fmt.Sprintf("%s(%s) avg=%.2f at minute %d", t.Kind, t.Entity, t.AvgLoad, t.Minute)
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

// watcher is the per-entity watch state machine. CPU and memory are
// watched independently.
type watcher struct {
	entity    string         // "" once deregistered or re-registered
	log       archive.Entity // the entity's archive write handle
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

// Params returns the system's tunables.
func (s *System) Params() Params { return s.params }

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
	return ok && w.mode != watchNone
}

// Observe feeds one measurement of a registered entity by name —
// ObserveWatch for callers that do not keep the handle.
func (s *System) Observe(entity string, minute int, cpu, mem float64) (*Trigger, error) {
	if h := s.Watch(entity); h.Live() {
		return s.ObserveWatch(h, minute, cpu, mem)
	}
	return nil, fmt.Errorf("monitor: entity %q not registered", entity)
}

// ObserveWatch feeds one measurement (the load monitor's report for the
// current minute). It records the sample in the archive and advances the
// watch state machine, returning a confirmed trigger or nil.
//
// The advisor step is the threshold comparison at the top of the state
// machine: only when a measurement exceeds the overload threshold (or
// falls below the idle threshold) does observation start.
func (s *System) ObserveWatch(h Watch, minute int, cpu, mem float64) (*Trigger, error) {
	if !h.Live() {
		return nil, fmt.Errorf("monitor: observation through a dead watch handle")
	}
	w, entity := h.w, h.w.entity
	if err := w.log.Record(archive.Sample{Minute: minute, CPU: cpu, Mem: mem}); err != nil {
		return nil, err
	}
	idleThr := s.params.IdleThreshold(w.perfIndex)

	// Memory watching (when enabled) runs independently of the CPU
	// machine; a confirmed CPU situation below takes precedence in the
	// same minute and the memory confirmation repeats next minute.
	var memTrigger *Trigger
	if thr := s.params.MemOverloadThreshold; thr > 0 {
		switch w.memMode {
		case watchNone:
			if mem > thr {
				w.memMode = watchOverload
				w.memStart = minute
				w.memSum, w.memN = mem, 1
				s.metrics.observe()
				if s.params.OverloadWatch == 0 {
					memTrigger = s.confirmMem(w, entity, minute, mem)
				}
			}
		case watchOverload:
			w.memSum += mem
			w.memN++
			if minute-w.memStart >= s.params.OverloadWatch {
				if avg := w.memSum / float64(w.memN); avg > thr {
					memTrigger = s.confirmMem(w, entity, minute, avg)
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
				return s.confirm(w, entity, minute, cpu)
			}
		case cpu < idleThr:
			w.mode = watchIdle
			w.start = minute
			w.sum, w.n = cpu, 1
			s.metrics.observe()
			if s.params.IdleWatch == 0 {
				return s.confirm(w, entity, minute, cpu)
			}
		}
		return memTrigger, nil
	case watchOverload:
		w.sum += cpu
		w.n++
		if minute-w.start < s.params.OverloadWatch {
			return memTrigger, nil
		}
		avg := w.sum / float64(w.n)
		if avg > s.params.OverloadThreshold {
			return s.confirm(w, entity, minute, avg)
		}
		w.mode = watchNone
		s.metrics.expire()
		return memTrigger, nil
	case watchIdle:
		w.sum += cpu
		w.n++
		if minute-w.start < s.params.IdleWatch {
			return memTrigger, nil
		}
		avg := w.sum / float64(w.n)
		if avg < idleThr {
			return s.confirm(w, entity, minute, avg)
		}
		w.mode = watchNone
		s.metrics.expire()
		return memTrigger, nil
	}
	return memTrigger, nil
}

func (s *System) confirm(w *watcher, entity string, minute int, avg float64) (*Trigger, error) {
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
	return &Trigger{Kind: kind, Entity: entity, Minute: minute, AvgLoad: avg, WatchedFrom: start}, nil
}

// confirmMem builds a memory-overload trigger and resets the memory
// watch. When a CPU situation confirms in the same minute it takes
// precedence and the memory situation simply re-arms on the next sample.
func (s *System) confirmMem(w *watcher, entity string, minute int, avg float64) *Trigger {
	kind := ServiceOverloaded
	if w.class == Server {
		kind = ServerOverloaded
	}
	start := w.memStart
	w.memMode = watchNone
	w.memSum, w.memN = 0, 0
	s.metrics.confirm()
	return &Trigger{Kind: kind, Entity: entity, Minute: minute, AvgLoad: avg,
		WatchedFrom: start, Resource: "memory"}
}
