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
// In memory are the day profiles and a ring of the newest samples. An
// in-memory archive (New) has nowhere else to keep history, so its ring
// holds the whole retention. A backed archive (NewBacked) writes every
// sample through to a tsdb store, so its ring is a window sized to the
// hot readers (watchTime averages, Latest) and a read reaching further
// back continues into the store. One ring, one read path, two capacities.
package archive

import (
	"fmt"
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

// profiled reports whether an entity keeps a day profile: every key but
// those InstanceEntity mints. The forecast scan lists hosts and services
// and the console asks for hosts; an instance's profile has no reader.
// The name alone decides: names are all NewBacked rebuilds an entity from.
func profiled(entity string) bool { return !strings.HasPrefix(entity, InstanceEntity("")) }

// Sample is one recorded measurement.
type Sample struct {
	Minute int     // absolute simulation minute
	CPU    float64 // CPU load in [0, 1] (may exceed 1 for raw demand)
	Mem    float64 // memory load in [0, 1]
}

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

// entityLog is the per-entity header. The bulk — ring and day profile —
// lives in pointer-free slabs the collector marks but never scans.
type entityLog struct {
	name     string
	ring     []Sample    // newest samples; chronological from head once full
	head     int         // index of the oldest sample once the ring is full
	ingested int         // samples ever ingested; past cap(ring) the oldest are evicted
	day      *dayProfile // noEntity's shared empty one unless profiled(name)
	// dayMost is the deepest day.n slot. Counts never decrease, so a
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
	retention int // raw samples kept per entity, both tiers together
	window    int // ring capacity: retention in memory, at most hotWindow when backed
	entities  map[string]*entityLog
	store     *tsdb.Store // nil for a pure in-memory archive

	// Unused tails of the slabs entities are carved from.
	logs  []entityLog
	days  []dayProfile
	rings []Sample

	profiles   int // entities holding a day profile of their own
	deepReads  *obs.Counter
	entityNum  *obs.Gauge
	profileNum *obs.Gauge
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
	return &Archive{retention: retention, window: retention, entities: make(map[string]*entityLog)}
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
		reserve(&a.rings, a.window)
		l = &a.logs[0]
		*l = entityLog{name: entity, ring: a.rings[:0:a.window], day: noEntity.day}
		a.logs, a.rings = a.logs[1:], a.rings[a.window:]
		if profiled(entity) {
			reserve(&a.days, 1)
			l.day, a.days = &a.days[0], a.days[1:]
			a.profiles++
			a.profileNum.Set(float64(a.profiles))
		}
		a.entities[entity] = l
		a.entityNum.Set(float64(len(a.entities)))
	}
	return l
}

// Preallocate creates the given entities up front: those not yet known
// get a header and a ring (24 B × retention in memory; × hotWindow, 3 KB,
// when backed), and those that keep a day profile — hosts, services,
// every key but a service instance's — its 17,280 B, each carved from
// one slab sized exactly for them: three allocations and three clears
// however many entities. Every ring has its full capacity from first
// touch, so steady-state recording never grows a slice; a coordinator
// expecting a 1,000-host landscape warms the archive before the first
// heartbeat and records allocation-free from minute zero. An entity
// first seen later is allocated on its own: header and ring, and a
// profile only if it keeps one.
func (a *Archive) Preallocate(entities ...string) {
	n, withProfile := 0, 0
	for _, e := range entities {
		if _, ok := a.entities[e]; !ok {
			n++
			if profiled(e) {
				withProfile++
			}
		}
	}
	reserve(&a.logs, n)
	reserve(&a.rings, n*a.window)
	reserve(&a.days, withProfile)
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
// archive the sample is first appended write-through to the disk store
// (durable at the next Commit), so the store always holds what the ring
// holds and everything the ring has evicted.
func (e Entity) Record(s Sample) error {
	a, l := e.a, e.l
	if l == &noEntity {
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
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, s)
	} else {
		l.ring[l.head] = s
		if l.head++; l.head == len(l.ring) {
			l.head = 0
		}
	}
	l.ingested++
	if l.day == noEntity.day {
		return // a service instance: no profile of its own
	}
	i := slot(s.Minute)
	l.day.sum[i] += s.CPU
	l.day.n[i]++
	if n := int(l.day.n[i]); n > l.dayMost {
		l.dayMost = n
	}
}

// at returns the i-th oldest sample of the ring, 0 <= i < len(l.ring).
// head stays 0 until the ring is full, so one rule serves both states.
func (l *entityLog) at(i int) Sample {
	if i += l.head; i >= len(l.ring) {
		i -= len(l.ring)
	}
	return l.ring[i]
}

// latest returns the newest sample of the ring.
func (l *entityLog) latest() (Sample, bool) {
	if len(l.ring) == 0 {
		return Sample{}, false
	}
	return l.at(len(l.ring) - 1), true
}

// search returns the chronological index of the first ring sample at or
// after minute m — strictly after it when after is set.
func (l *entityLog) search(m int, after bool) int {
	return sort.Search(len(l.ring), func(i int) bool {
		at := l.at(i).Minute
		return at > m || at == m && !after
	})
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
	a *Archive
	l *entityLog // &noEntity: read-only handle of an unknown entity
}

// noEntity is what an unknown entity reads as. Its empty day profile is
// also every service instance's, so profile reads need no branch. Never
// written: ingest only reaches logs created by Archive.log and skips
// those that share this profile.
var noEntity = entityLog{day: new(dayProfile)}

// Entity resolves the handle of an entity without creating it.
func (a *Archive) Entity(entity string) Entity {
	if l, ok := a.entities[entity]; ok {
		return Entity{a, l}
	}
	return Entity{a, &noEntity}
}

// Resolve returns the handle of an entity, creating its (empty) log —
// ring at full capacity and, unless the key is a service instance's, a
// day profile, allocated on their own — on first sight.
func (a *Archive) Resolve(entity string) Entity { return Entity{a, a.log(entity)} }

// Len returns the number of raw samples currently retained, ring and
// store together: min(ingested, retention), from a counter — the
// forecast's minimum-history gate must not depend on how much history
// is in memory. A reopened backed archive counts what it replays.
func (e Entity) Len() int { return min(e.l.ingested, e.a.retention) }

// Latest returns the most recent sample.
func (e Entity) Latest() (Sample, bool) { return e.l.latest() }

// ProfileAt returns the mean CPU load at a minute of day (any absolute
// minute is folded); 0 for a never-observed minute, as a service instance's all are.
func (e Entity) ProfileAt(minute int) float64 { return e.l.day.mean(slot(minute)) }

// ObservationCount returns how many samples contributed to the day
// profile at a minute of day.
func (e Entity) ObservationCount(minute int) int { return int(e.l.day.n[slot(minute)]) }

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

// span resolves a read of the minutes from..to (inclusive) against the
// two tiers: samples only the store still holds are streamed to deep,
// oldest first; lo..hi is the chronological index range (see at) of the
// ring samples that follow them. Only a backed archive whose ring has
// evicted reads deep, and only minutes above latest − retention:
// retention there is by minute, so an answer never depends on when the
// hourly compaction last ran (a gap-free series reads exactly as from a
// retention-sized ring). Minutes may repeat, so the ring's oldest minute
// can straddle the eviction edge: the store serves that minute whole and
// the ring starts after it. A failed store read is an error, never "no
// samples".
func (a *Archive) span(l *entityLog, from, to int, deep func(tsdb.Sample)) (lo, hi int, err error) {
	if n := len(l.ring); a.store != nil && l.ingested > n {
		oldest, newest := l.at(0).Minute, l.at(n-1).Minute
		if dlo, dhi := max(from, newest-a.retention+1), min(to, oldest); dlo <= dhi {
			a.deepReads.Inc()
			if err := a.store.ForEachMinute(l.name, dlo, dhi+1, deep); err != nil {
				return 0, 0, fmt.Errorf("archive: %q: minutes %d..%d: %w", l.name, dlo, dhi, err)
			}
			from = oldest + 1
		}
	}
	lo = l.search(from, false)
	return lo, max(lo, l.search(to, true)), nil
}

// Window returns the samples of an entity with from <= Minute <= to, in
// chronological order, copying only that range. What a backed archive's
// ring no longer holds is read from the store; the error is the store's
// (closed, a failed disk read) and never arises on an in-memory archive.
func (a *Archive) Window(entity string, from, to int) ([]Sample, error) {
	l := a.Entity(entity).l
	var out []Sample
	lo, hi, err := a.span(l, from, to, func(s tsdb.Sample) { out = append(out, Sample(s)) })
	if err != nil {
		return nil, err
	}
	for i := lo; i < hi; i++ {
		out = append(out, l.at(i))
	}
	return out, nil
}

// sums adds up the CPU and memory loads over the window from..to in
// chronological order — in place, without copying the window.
func (a *Archive) sums(entity string, from, to int) (cpu, mem float64, n int, err error) {
	l := a.Entity(entity).l
	lo, hi, err := a.span(l, from, to, func(s tsdb.Sample) { cpu, mem, n = cpu+s.CPU, mem+s.Mem, n+1 })
	for i := lo; i < hi; i++ {
		s := l.at(i)
		cpu, mem = cpu+s.CPU, mem+s.Mem
	}
	return cpu, mem, n + hi - lo, err
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
// (InstanceEntity), which keeps no profile. The slice is freshly
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

// ProfileAt returns the mean CPU load of the entity at a
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

// Len is Entity(entity).Len().
func (a *Archive) Len(entity string) int { return a.Entity(entity).Len() }
