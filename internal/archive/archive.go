// Package archive implements AutoGlobe's load archive: "a persistent
// aggregated view of historic load data. This data is used to calculate
// the average load of services during their watchTime and to initialize
// all resource variables of the fuzzy controller."
//
// The archive keeps, per monitored entity, the last `retention` raw
// per-minute samples and — for hosts and services, the entities the
// load-forecasting extension (paper Section 7) predicts — an aggregated
// day profile (mean per minute of day across all observed days). A
// service instance keeps no profile: nothing reads one, and its profile
// reads answer as for a never-observed minute, 0.
//
// Day profiles are kept on demand. An archive keeps none until a reader
// calls KeepProfiles — the forecaster (forecast.New), a forecasting
// controller (controller.New) or the console's detail panel — which
// builds each from the store's raw minutes; from then on every Record
// updates them. Until then ProfileAt, ObservationCount, DaysObserved and
// DayProfile(Into) answer as for an unknown entity, and
// MetricProfiles reads 0.
//
// The archive holds the day profiles and a counter per entity; every raw
// sample lives in a tsdb store, whose entity keeps its newest 64 in
// memory — the tail every watchTime read and Latest are served from. An
// in-memory archive (New) runs over a store with no directory, which
// keeps every sealed block raw; a backed one (NewBacked) over a store on
// disk. Both share one append path, one read path and one capacity rule.
package archive

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"autoglobe/internal/obs"
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

// profiled reports whether an entity keeps a day profile while the
// archive keeps profiles: every key but those InstanceEntity mints. The
// forecast scan lists hosts and services and the console asks for hosts;
// an instance's profile has no reader. The name alone decides: names are
// all KeepProfiles rebuilds a profile from.
func profiled(entity string) bool { return !strings.HasPrefix(entity, InstanceEntity("")) }

// Sample is one recorded measurement, the store's own type.
type Sample = tsdb.Sample

// dayProfile is the aggregated day profile: per minute of day the CPU
// sum and the observation count, in two arrays so that a minute costs 12
// bytes without padding (17,280 B a profile). The interleaved {sum,
// mean, n int} cell it replaced (24 B) kept a Record and a forecast step
// on one cache line; they now touch a line of each array, of which a
// horizon scan over consecutive minutes gets 8 sums and 16 counts. The
// mean is not cached: mean divides the two operands the cached one was
// computed from, so every float a reader sees is the same.
type dayProfile struct {
	sum [MinutesPerDay]float64
	n   [MinutesPerDay]uint32
}

// mean returns the mean CPU load at a minute of day, 0 if never observed.
func (d *dayProfile) mean(i int) float64 {
	if d.n[i] == 0 {
		return 0
	}
	return d.sum[i] / float64(d.n[i])
}

// entityLog is the per-entity header; the day profile lives in a
// pointer-free slab the collector marks but never scans, the samples in
// the store.
type entityLog struct {
	name     string
	ingested int         // samples ever ingested
	day      *dayProfile // noEntity's shared empty one unless kept and profiled(name)
	// dayMost is the deepest day.n slot. Counts never decrease, so a
	// running max kept by fold is exact and DaysObserved is one load.
	dayMost int

	stored tsdb.Handle // resolved by the first Record, or by NewBacked's replay
}

// fold adds a sample to the entity's day profile, if it keeps one.
func (l *entityLog) fold(s Sample) {
	if l.day == noEntity.day {
		return // no profile of its own
	}
	i := slot(s.Minute)
	l.day.sum[i] += s.CPU
	l.day.n[i]++
	if n := int(l.day.n[i]); n > l.dayMost {
		l.dayMost = n
	}
}

// slot folds an absolute minute onto its minute of day.
func slot(minute int) int {
	return ((minute % MinutesPerDay) + MinutesPerDay) % MinutesPerDay
}

// Archive stores aggregated historic load data per entity. The zero
// value is not usable; construct with New (in memory) or NewBacked (on
// disk).
type Archive struct {
	retention int // raw minutes read back per entity: those above latest − retention
	entities  map[string]*entityLog
	created   []*entityLog // every log in creation order: KeepProfiles' walk
	store     *tsdb.Store

	// Unused tails of the slabs entities are carved from.
	logs []entityLog
	days []dayProfile

	keep       bool // day profiles are kept (KeepProfiles)
	profiles   int  // entities holding a day profile of their own
	deepReads  *obs.Counter
	entityNum  *obs.Gauge
	profileNum *obs.Gauge
}

// DefaultRetention keeps three simulated days of per-minute samples,
// comfortably covering the paper's 80-hour runs' recent history.
const DefaultRetention = 3 * MinutesPerDay

// New returns an in-memory archive retaining the given number of raw
// minutes per entity (DefaultRetention if retention <= 0).
func New(retention int) *Archive {
	st, _ := tsdb.Open("", tsdb.Options{}) // a memory store cannot fail
	return over(st, retention)
}

// over returns an empty archive over st: New's and NewBacked's shared half.
func over(st *tsdb.Store, retention int) *Archive {
	if retention <= 0 {
		retention = DefaultRetention
	}
	return &Archive{retention: retention, entities: make(map[string]*entityLog), store: st}
}

// reserve makes a slab's unused tail at least n long, replacing a
// shorter one with a fresh slab of exactly n. Each slab grows on its own.
func reserve[T any](slab *[]T, n int) {
	if len(*slab) < n {
		*slab = make([]T, n)
	}
}

func (a *Archive) log(entity string) *entityLog {
	l, ok := a.entities[entity]
	if !ok {
		reserve(&a.logs, 1)
		l = &a.logs[0]
		*l = entityLog{name: entity, day: noEntity.day}
		a.logs = a.logs[1:]
		if a.keep && profiled(entity) {
			a.carve(l)
		}
		a.entities[entity] = l
		a.created = append(a.created, l)
		a.entityNum.Set(float64(len(a.entities)))
	}
	return l
}

// carve gives l an empty day profile from the profile slab.
func (a *Archive) carve(l *entityLog) {
	reserve(&a.days, 1)
	l.day, a.days = &a.days[0], a.days[1:]
	a.profiles++
	a.profileNum.Set(float64(a.profiles))
}

// Preallocate creates the given entities up front: those not yet known
// get a header and, while the archive keeps profiles, those that keep a
// day profile — hosts, services, every key but a service instance's —
// its 17,280 B, each carved from one slab sized exactly for them: two
// allocations and two clears however many entities. An archive that
// keeps no profiles carves none (KeepProfiles carves them later). A
// coordinator expecting a 1,000-host landscape warms the archive before
// the first heartbeat. An entity first seen later is allocated on its
// own: a header, and a profile only if it keeps one. The store
// allocates an entity's tail at its first Record.
func (a *Archive) Preallocate(entities ...string) {
	n, withProfile := 0, 0
	for _, e := range entities {
		if _, ok := a.entities[e]; !ok {
			n++
			if a.keep && profiled(e) {
				withProfile++
			}
		}
	}
	reserve(&a.logs, n)
	reserve(&a.days, withProfile)
	a.created = slices.Grow(a.created, n)
	for _, e := range entities {
		a.log(e)
	}
}

// Record is Resolve(entity).Record(s) for callers keeping no handle.
func (a *Archive) Record(entity string, s Sample) error { return a.Resolve(entity).Record(s) }

// Record stores a measurement through a handle from Resolve: into the
// store (durable at the next Commit on disk), which refuses a minute
// below the entity's last, then into the day profile.
func (e Entity) Record(s Sample) error {
	a, l := e.a, e.l
	if l == &noEntity {
		return fmt.Errorf("archive: Record through a read-only entity handle")
	}
	if err := a.store.AppendTo(&l.stored, l.name, s); err != nil {
		return err
	}
	l.ingested++
	l.fold(s)
	return nil
}

// KeepProfiles turns day profiles on: it carves one slab for every
// known host and service, in the order they were created, and builds
// each profile from the store's raw minutes, oldest first; from then on
// Record keeps them up to date. Run before the first Record or right
// after NewBacked, it gives every profile the float operations the live
// path would have, in the same order; history the store has cut behind
// the retention window is gone and is left out. A second call does
// nothing. If a store read fails, the archive keeps no profiles and the
// call can be retried.
func (a *Archive) KeepProfiles() error {
	if a.keep {
		return nil
	}
	n := 0
	for _, l := range a.created {
		if profiled(l.name) {
			n++
		}
	}
	reserve(&a.days, n)
	// One closure for the whole walk: cur is the entity being built.
	var cur *entityLog
	fold := func(s Sample) { cur.fold(s) }
	for _, l := range a.created {
		if !profiled(l.name) {
			continue
		}
		cur = l
		a.carve(l)
		if _, err := a.store.Range(l.stored, 0, math.MaxInt, fold); err != nil {
			for _, e := range a.created {
				e.day, e.dayMost = noEntity.day, 0
			}
			a.days, a.profiles = nil, 0
			a.profileNum.Set(0)
			return fmt.Errorf("archive: %q: day profile: %w", l.name, err)
		}
	}
	a.keep = true
	return nil
}

// Entity is a resolved handle on one entity: the string-keyed lookup is
// paid once, after which every profile read is a plain array load — what
// the forecast predictor's horizon scan wants — every Record skips the
// name lookups of archive and store alike, and Latest reads the tail.
// Entity logs are never deleted, so a handle from Resolve is good for
// the archive's life.
// Archive.Entity does not create: an entity the archive has not seen
// reads as empty through a read-only handle that does not follow a
// later first Record.
type Entity struct {
	a *Archive
	l *entityLog // &noEntity: read-only handle of an unknown entity
}

// noEntity is what an unknown entity reads as. Its empty day profile is
// also every service instance's, and every entity's while the archive
// keeps no profiles, so profile reads need no branch. Never written:
// fold skips the logs that share this profile.
var noEntity = entityLog{day: new(dayProfile)}

// Entity resolves the handle of an entity without creating it.
func (a *Archive) Entity(entity string) Entity {
	if l, ok := a.entities[entity]; ok {
		return Entity{a, l}
	}
	return Entity{a, &noEntity}
}

// Known reports whether the handle names an entity the archive holds.
// It is false for the zero Entity and for Archive.Entity's read-only
// handle of an entity not yet seen, which does not follow that entity's
// first Record: a caller keeping such a handle resolves it again. A
// known handle stays valid for the archive's life.
func (e Entity) Known() bool { return e.l != nil && e.l != &noEntity }

// Resolve returns the handle of an entity, creating its (empty) log —
// a header and, while the archive keeps profiles and unless the key is
// a service instance's, a day profile — on first sight.
func (a *Archive) Resolve(entity string) Entity { return Entity{a, a.log(entity)} }

// Len returns min(ingested, retention), from a counter — the forecast's
// minimum-history gate must not depend on gaps or compaction. A reopened
// backed archive counts what it replays.
func (e Entity) Len() int { return min(e.l.ingested, e.a.retention) }

// Latest returns the most recent sample, from the store's tail: no
// lookup, no lock, no allocation (see tsdb.Store.Range).
func (e Entity) Latest() (Sample, bool) { return e.a.store.Latest(e.l.stored) }

// ProfileAt returns the mean CPU load at a minute of day (any absolute
// minute is folded); 0 for a never-observed minute, as a service
// instance's all are, and every minute while the archive keeps no
// profiles (KeepProfiles).
func (e Entity) ProfileAt(minute int) float64 { return e.l.day.mean(slot(minute)) }

// ObservationCount returns how many samples contributed to the day
// profile at a minute of day — the per-minute observation depth the
// forecast confidence is derived from.
func (e Entity) ObservationCount(minute int) int { return int(e.l.day.n[slot(minute)]) }

// DaysObserved returns the deepest per-minute observation count — an
// upper bound on how many days of history back any profile minute,
// against which sparse minutes are judged. O(1): fold keeps the
// running max.
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
		if s, have := a.store.Latest(l.stored); have && s.Minute > last {
			last, ok = s.Minute, true
		}
	}
	return last, ok
}

// each streams the raw samples of l with from <= Minute <= to, oldest
// first: of those, the store returns the minutes above latest − retention
// — one rule for both archives, so an answer never depends on when the
// hourly retention cut last ran. A read the tail answers takes no lock and
// allocates nothing; one that needs a sealed block from disk counts as a
// deep read. A failed store read is an error, never "no samples".
func (a *Archive) each(l *entityLog, from, to int, fn func(Sample)) error {
	last, ok := a.store.Latest(l.stored)
	if !ok {
		return nil
	}
	from, to = max(from, last.Minute-a.retention+1), min(to, last.Minute)
	disk, err := a.store.Range(l.stored, from, to+1, fn)
	if disk {
		a.deepReads.Inc()
	}
	if err != nil {
		return fmt.Errorf("archive: %q: minutes %d..%d: %w", l.name, from, to, err)
	}
	return nil
}

// Window returns the samples of an entity with from <= Minute <= to, in
// chronological order. The error is the store's (closed, a failed disk
// read) and never arises on an in-memory archive.
func (a *Archive) Window(entity string, from, to int) ([]Sample, error) {
	var out []Sample
	if err := a.each(a.Entity(entity).l, from, to, func(s Sample) { out = append(out, s) }); err != nil {
		return nil, err
	}
	return out, nil
}

// sums adds up the CPU and memory loads over the window from..to in
// chronological order — in place, without copying the window.
func (a *Archive) sums(entity string, from, to int) (cpu, mem float64, n int, err error) {
	err = a.each(a.Entity(entity).l, from, to, func(s Sample) { cpu, mem, n = cpu+s.CPU, mem+s.Mem, n+1 })
	return cpu, mem, n, err
}

// AverageCPU returns the mean CPU load of an entity over the window
// from..to (inclusive), which is how the controller initializes its load
// variables with watchTime averages. ok is false when no samples fall in
// the window; err is Window's.
func (a *Archive) AverageCPU(entity string, from, to int) (avg float64, ok bool, err error) {
	cpu, _, n, err := a.sums(entity, from, to)
	return mean(cpu, n, err)
}

// AverageMem returns the mean memory load over the window.
func (a *Archive) AverageMem(entity string, from, to int) (avg float64, ok bool, err error) {
	_, mem, n, err := a.sums(entity, from, to)
	return mean(mem, n, err)
}

func mean(sum float64, n int, err error) (float64, bool, error) {
	if n == 0 || err != nil {
		return 0, false, err
	}
	return sum / float64(n), true, nil
}

// PercentileCPU returns the p-quantile (0 < p <= 1) of the CPU load
// over the window from..to, with linear interpolation between order
// statistics. Operators read tail quantiles (p95/p99) off the console
// to judge response-time risk, which mean loads hide. err is Window's.
func (a *Archive) PercentileCPU(entity string, from, to int, p float64) (float64, bool, error) {
	if p <= 0 || p > 1 {
		return 0, false, nil
	}
	w, err := a.Window(entity, from, to)
	if len(w) == 0 {
		return 0, false, err
	}
	vals := make([]float64, len(w))
	for i, s := range w {
		vals[i] = s.CPU
	}
	sort.Float64s(vals)
	if len(vals) == 1 {
		return vals[0], true, nil
	}
	pos := p * float64(len(vals)-1)
	lo := int(pos)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1], true, nil
	}
	frac := pos - float64(lo)
	return vals[lo] + frac*(vals[lo+1]-vals[lo]), true, nil
}

// DayProfile returns the aggregated mean CPU load per minute of day —
// the "pattern" historic view used for load prediction. Minutes never
// observed carry 0, and so does every minute of a service instance
// (InstanceEntity), which keeps no profile, and of every entity while
// the archive keeps no profiles (KeepProfiles). The slice is freshly
// allocated; hot paths use ProfileAt or DayProfileInto instead.
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
		dst[i] = l.day.mean(i)
	}
}

// Entities returns the names of all entities with recorded data, sorted.
func (a *Archive) Entities() []string {
	out := make([]string, 0, len(a.entities))
	for e := range a.entities {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}
