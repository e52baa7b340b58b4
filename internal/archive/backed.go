package archive

import (
	"math"

	"autoglobe/internal/obs"
	"autoglobe/internal/tsdb"
)

// hotWindow is the ring capacity of a backed archive, in samples: six
// times the paper's longest watchTime (20 minutes), 3 KB an entity. It
// only decides which tier serves a read, never what the read returns.
const hotWindow = 128

// NewBacked opens (or recovers) a disk-backed archive: every Record is
// written through to a segmented tsdb store in dir, and opening an
// existing directory replays the persisted history — the in-memory
// rings and day profiles (who keeps one follows from the entity's name,
// as on the live path) are rebuilt from the raw minute samples, in
// the same chronological order they were first recorded, so a
// recovered coordinator's DayProfile is byte-identical to the one it
// crashed with (for history still at minute resolution; the store
// compacts only data older than the retention window).
//
// In memory are the day profiles and, per entity, a ring of the newest
// hotWindow samples: Latest, LastMinute, Len, the profile reads and
// every watchTime average are served from there and cannot fail. Older
// samples are in the store only; Window, AverageCPU, AverageMem and
// PercentileCPU continue into it (sealed blocks through its hot-block
// cache, then its open buffer) when asked for minutes the ring has
// evicted, and return its error if it fails. The store also adds
// durability and the minute → hour → day downsampling tiers.
func NewBacked(dir string, retention int, opts tsdb.Options) (*Archive, error) {
	st, err := tsdb.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	a := New(retention)
	a.store = st
	a.window = min(hotWindow, a.retention)
	names := st.Entities()
	a.Preallocate(names...)
	for _, entity := range names {
		l := a.log(entity)
		if err := st.ForEachMinute(entity, 0, math.MaxInt, func(s tsdb.Sample) {
			a.ingest(l, Sample{Minute: s.Minute, CPU: s.CPU, Mem: s.Mem})
		}); err != nil {
			st.Close()
			return nil, err
		}
	}
	return a, nil
}

// Backed reports whether the archive writes through to a disk store.
func (a *Archive) Backed() bool { return a.store != nil }

// Store exposes the backing tsdb store (nil for an in-memory archive)
// for tiered reads and stats beyond the Archive API.
func (a *Archive) Store() *tsdb.Store { return a.store }

// Commit makes every sample recorded since the last call durable in
// one batched segment write. The coordinator calls it once per
// observed minute — "acked" load history means "the minute closed".
// A no-op (and nil error) on an in-memory archive.
func (a *Archive) Commit() error {
	if a.store == nil {
		return nil
	}
	return a.store.Commit()
}

// Maintain is the once-per-minute housekeeping call of a backed
// archive: commit the minute's samples, and once per hour compact disk
// history older than the retention window into the hour and day tiers.
// Raw minute resolution — and with it the day profile's inputs — is
// preserved for the full retention window.
func (a *Archive) Maintain(minute int) error {
	if a.store == nil {
		return nil
	}
	if err := a.store.Commit(); err != nil {
		return err
	}
	if minute > a.retention && minute%60 == 0 {
		return a.store.CompactBefore(minute - a.retention)
	}
	return nil
}

// Instrument attaches an obs registry: entities and day profiles held,
// reads that continued into the backing store, and the store's own families
// (segments, compactions, cache hits, disk). Attach-only and nil-safe.
func (a *Archive) Instrument(r *obs.Registry) {
	r.Help(MetricDeepReads, "Reads that continued below the in-memory window into the store.")
	r.Help(MetricEntities, "Entities held: a ring of the newest samples each.")
	r.Help(MetricProfiles, "Entities holding a day profile: all but service instances.")
	a.deepReads = r.Counter(MetricDeepReads)
	a.entityNum = r.Gauge(MetricEntities)
	a.entityNum.Set(float64(len(a.entities)))
	a.profileNum = r.Gauge(MetricProfiles)
	a.profileNum.Set(float64(a.profiles))
	if a.store != nil {
		a.store.Instrument(r)
	}
}

// Close commits buffered samples and closes the backing store. The
// in-memory tier stays readable; further Records, and reads that would
// continue into the store, fail. A no-op on an in-memory archive.
func (a *Archive) Close() error {
	if a.store == nil {
		return nil
	}
	return a.store.Close()
}
