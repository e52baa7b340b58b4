// Package archive implements AutoGlobe's load archive: "a persistent
// aggregated view of historic load data. This data is used to calculate
// the average load of services during their watchTime and to initialize
// all resource variables of the fuzzy controller."
//
// The archive keeps, per monitored entity, a bounded window of raw
// per-minute samples plus an aggregated day profile (running mean per
// minute of day across all observed days). The day profile is the input
// of the load-forecasting extension (paper Section 7).
package archive

import (
	"fmt"
	"sort"

	"autoglobe/internal/tsdb"
)

// MinutesPerDay mirrors workload.MinutesPerDay without importing it.
const MinutesPerDay = 24 * 60

// Entity key helpers: the archive stores hosts, services and service
// instances in one namespace; monitors and the controller must agree on
// the keys.

// HostEntity returns the archive key for a host.
func HostEntity(name string) string { return "host/" + name }

// ServiceEntity returns the archive key for a service (aggregated over
// its instances).
func ServiceEntity(name string) string { return "svc/" + name }

// InstanceEntity returns the archive key for a service instance.
func InstanceEntity(id string) string { return "inst/" + id }

// Sample is one recorded measurement.
type Sample struct {
	Minute int     // absolute simulation minute
	CPU    float64 // CPU load in [0, 1] (may exceed 1 for raw demand)
	Mem    float64 // memory load in [0, 1]
}

// entityLog is the per-entity state.
type entityLog struct {
	name    string
	samples []Sample // ring buffer, oldest first
	head    int      // index of oldest element when full
	full    bool

	// day is the aggregated day profile: per minute of day the CPU sum,
	// the observation count and the running mean, interleaved so that one
	// Record — and one forecast step, which reads mean and count —
	// touches a single cache line. The mean is maintained incrementally,
	// so the controller's hot read path (ProfileAt) is a plain array load.
	day [MinutesPerDay]struct {
		sum, mean float64
		n         int
	}
	// dayMost is the deepest day[].n slot. Counts never decrease, so a
	// running max kept by ingest is exact and DaysObserved is one load.
	dayMost int

	stored tsdb.Handle // resolved by the first write-through Record
}

// slot folds an absolute minute onto its minute of day.
func slot(minute int) int {
	return ((minute % MinutesPerDay) + MinutesPerDay) % MinutesPerDay
}

// Archive stores aggregated historic load data per entity. The zero
// value is not usable; construct with New (in-memory only) or
// NewBacked (write-through to a disk store).
type Archive struct {
	retention int // raw samples kept per entity
	entities  map[string]*entityLog
	store     *tsdb.Store // nil for a pure in-memory archive
}

// DefaultRetention keeps three simulated days of per-minute samples,
// comfortably covering the paper's 80-hour runs' recent history.
const DefaultRetention = 3 * MinutesPerDay

// New returns an archive retaining the given number of raw samples per
// entity (DefaultRetention if retention <= 0).
func New(retention int) *Archive {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Archive{retention: retention, entities: make(map[string]*entityLog)}
}

func (a *Archive) log(entity string) *entityLog {
	l, ok := a.entities[entity]
	if !ok {
		l = &entityLog{name: entity, samples: make([]Sample, 0, a.retention)}
		a.entities[entity] = l
	}
	return l
}

// Preallocate creates the rings for the given entities up front, each
// at its full retention capacity. Every per-entity ring is always
// allocated at full capacity on first touch, so steady-state recording
// never grows a slice; preallocating additionally moves the one-time
// map insert and ring allocation out of the ingest hot path — a
// coordinator expecting a 1,000-host landscape warms the archive
// before the first heartbeat arrives and then records allocation-free
// from minute zero.
func (a *Archive) Preallocate(entities ...string) {
	for _, e := range entities {
		a.log(e)
	}
}

// Retention returns the number of raw samples kept per entity.
func (a *Archive) Retention() int { return a.retention }

// Record is Resolve(entity).Record(s) for callers keeping no handle.
func (a *Archive) Record(entity string, s Sample) error { return a.Resolve(entity).Record(s) }

// Record stores a measurement through a handle from Resolve. Samples
// must be recorded in non-decreasing minute order per entity. On a backed
// archive the sample is also appended write-through to the disk store
// (durable at the next Commit); the in-memory ring stays the hot tier.
func (e Entity) Record(s Sample) error {
	a, l := e.a, e.l
	if a == nil {
		return fmt.Errorf("archive: Record through a read-only entity handle")
	}
	if last, ok := l.latest(); ok && s.Minute < last.Minute {
		return fmt.Errorf("archive: %q: sample at minute %d after minute %d", l.name, s.Minute, last.Minute)
	}
	if a.store != nil {
		if err := a.store.AppendTo(&l.stored, l.name, tsdb.Sample{Minute: s.Minute, CPU: s.CPU, Mem: s.Mem}); err != nil {
			return err
		}
	}
	a.ingest(l, s)
	return nil
}

// ingest applies a sample to the in-memory state — the shared tail of
// the live Record path and the replay path of a backed archive (which
// must not write back through to the store it is replaying).
func (a *Archive) ingest(l *entityLog, s Sample) {
	if len(l.samples) < a.retention {
		l.samples = append(l.samples, s)
	} else {
		l.samples[l.head] = s
		l.head = (l.head + 1) % a.retention
		l.full = true
	}
	d := &l.day[slot(s.Minute)]
	d.sum += s.CPU
	d.n++
	d.mean = d.sum / float64(d.n)
	if d.n > l.dayMost {
		l.dayMost = d.n
	}
}

// latest returns the newest sample of the ring (a full ring holds
// exactly retention samples, so its length is the modulus).
func (l *entityLog) latest() (Sample, bool) {
	n := len(l.samples)
	if n == 0 {
		return Sample{}, false
	}
	if !l.full {
		return l.samples[n-1], true
	}
	return l.samples[(l.head-1+n)%n], true
}

// Entity is a resolved handle on one entity: the string-keyed lookup is
// paid once, after which every read is a plain array load — what the
// forecast predictor's horizon scan wants — and every Record skips the
// name lookups of archive and backing store alike. Entity logs are never
// deleted, so a handle from Resolve is good for the archive's life.
// Archive.Entity does not create: an entity the archive has not seen
// reads as empty through a read-only handle that does not follow a
// later first Record.
type Entity struct {
	a *Archive // nil: read-only handle of an unknown entity
	l *entityLog
}

// noEntity is what an unknown entity reads as. Never written: ingest
// only reaches logs created by Archive.log.
var noEntity entityLog

// Entity resolves the handle of an entity without creating it.
func (a *Archive) Entity(entity string) Entity {
	if l, ok := a.entities[entity]; ok {
		return Entity{a, l}
	}
	return Entity{nil, &noEntity}
}

// Resolve returns the handle of an entity, creating its (empty) log —
// ring at full capacity, as Preallocate does — on first sight.
func (a *Archive) Resolve(entity string) Entity { return Entity{a, a.log(entity)} }

// Len returns the number of raw samples currently retained.
func (e Entity) Len() int { return len(e.l.samples) }

// Latest returns the most recent sample.
func (e Entity) Latest() (Sample, bool) { return e.l.latest() }

// ProfileAt returns the running mean CPU load at a minute of day (any
// absolute minute is folded); 0 for a never-observed minute.
func (e Entity) ProfileAt(minute int) float64 { return e.l.day[slot(minute)].mean }

// ObservationCount returns how many samples contributed to the day
// profile at a minute of day.
func (e Entity) ObservationCount(minute int) int { return e.l.day[slot(minute)].n }

// DaysObserved returns the deepest per-minute observation count.
func (e Entity) DaysObserved() int { return e.l.dayMost }

// Latest returns the most recent sample of an entity.
func (a *Archive) Latest(entity string) (Sample, bool) { return a.Entity(entity).Latest() }

// LastMinute returns the most recent minute recorded across all
// entities. A control loop that reopens a backed archive must resume
// its clock past this high-water mark: the store's append rule is
// monotone per entity, so replaying minute 0 over restored history is
// rejected.
func (a *Archive) LastMinute() (int, bool) {
	last, ok := -1, false
	for _, l := range a.entities {
		if s, have := l.latest(); have && s.Minute > last {
			last, ok = s.Minute, true
		}
	}
	return last, ok
}

// Window returns the samples of an entity with from <= Minute <= to, in
// chronological order.
func (a *Archive) Window(entity string, from, to int) []Sample {
	l, ok := a.entities[entity]
	if !ok {
		return nil
	}
	ordered := a.ordered(l)
	lo := sort.Search(len(ordered), func(i int) bool { return ordered[i].Minute >= from })
	hi := sort.Search(len(ordered), func(i int) bool { return ordered[i].Minute > to })
	if lo >= hi {
		return nil
	}
	out := make([]Sample, hi-lo)
	copy(out, ordered[lo:hi])
	return out
}

// ordered returns the ring buffer in chronological order.
func (a *Archive) ordered(l *entityLog) []Sample {
	if !l.full {
		return l.samples
	}
	out := make([]Sample, 0, len(l.samples))
	out = append(out, l.samples[l.head:]...)
	out = append(out, l.samples[:l.head]...)
	return out
}

// AverageCPU returns the mean CPU load of an entity over the window
// from..to (inclusive), which is how the controller initializes its load
// variables with watchTime averages. ok is false when no samples fall in
// the window.
func (a *Archive) AverageCPU(entity string, from, to int) (avg float64, ok bool) {
	w := a.Window(entity, from, to)
	if len(w) == 0 {
		return 0, false
	}
	var sum float64
	for _, s := range w {
		sum += s.CPU
	}
	return sum / float64(len(w)), true
}

// AverageMem returns the mean memory load over the window.
func (a *Archive) AverageMem(entity string, from, to int) (avg float64, ok bool) {
	w := a.Window(entity, from, to)
	if len(w) == 0 {
		return 0, false
	}
	var sum float64
	for _, s := range w {
		sum += s.Mem
	}
	return sum / float64(len(w)), true
}

// PercentileCPU returns the p-quantile (0 < p <= 1) of the CPU load
// over the window from..to, with linear interpolation between order
// statistics. Operators read tail quantiles (p95/p99) off the console
// to judge response-time risk, which mean loads hide.
func (a *Archive) PercentileCPU(entity string, from, to int, p float64) (float64, bool) {
	if p <= 0 || p > 1 {
		return 0, false
	}
	w := a.Window(entity, from, to)
	if len(w) == 0 {
		return 0, false
	}
	vals := make([]float64, len(w))
	for i, s := range w {
		vals[i] = s.CPU
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0], true
	}
	pos := p * float64(len(vals)-1)
	lo := int(pos)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1], true
	}
	frac := pos - float64(lo)
	return vals[lo] + frac*(vals[lo+1]-vals[lo]), true
}

// DayProfile returns the aggregated mean CPU load per minute of day —
// the "pattern" historic view used for load prediction. Minutes never
// observed carry 0. The slice is freshly allocated; hot paths use
// ProfileAt or DayProfileInto instead.
func (a *Archive) DayProfile(entity string) []float64 {
	out := make([]float64, MinutesPerDay)
	a.DayProfileInto(entity, out)
	return out
}

// DayProfileInto copies the day profile into dst (len MinutesPerDay)
// without allocating. An unknown entity zeroes dst.
func (a *Archive) DayProfileInto(entity string, dst []float64) {
	l := a.Entity(entity).l
	for i := range dst[:min(len(dst), MinutesPerDay)] {
		dst[i] = l.day[i].mean
	}
}

// ProfileAt returns the running mean CPU load of the entity at a
// minute of day (any absolute minute is folded). O(1), no allocation. A
// never-observed minute (or unknown entity) returns 0.
func (a *Archive) ProfileAt(entity string, minute int) float64 {
	return a.Entity(entity).ProfileAt(minute)
}

// ObservationCount returns how many samples contributed to the day
// profile at a minute of day — the per-minute observation depth the
// forecast confidence is derived from.
func (a *Archive) ObservationCount(entity string, minute int) int {
	return a.Entity(entity).ObservationCount(minute)
}

// DaysObserved returns the deepest per-minute observation count of the
// entity — an upper bound on how many days of history back any profile
// minute, against which sparse minutes are judged. O(1): ingest keeps
// the running max.
func (a *Archive) DaysObserved(entity string) int { return a.Entity(entity).DaysObserved() }

// Entities returns the names of all entities with recorded data, sorted.
func (a *Archive) Entities() []string {
	out := make([]string, 0, len(a.entities))
	for e := range a.entities {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of raw samples currently retained for entity.
func (a *Archive) Len(entity string) int { return a.Entity(entity).Len() }
