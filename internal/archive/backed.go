package archive

import (
	"autoglobe/internal/obs"
	"autoglobe/internal/tsdb"
)

// NewBacked opens (or recovers) a disk-backed archive: every Record is
// written to a segmented tsdb store in dir, and opening an existing
// directory replays the persisted history. Each entity's counter comes
// from the store's block index (tsdb.Store.Count), which reads at most
// the one sealed block the retention cut splits. The reopened archive
// keeps no day profiles: KeepProfiles, called next, rebuilds them from
// the same samples in the order they were first recorded, so a
// recovered coordinator's DayProfile is byte-identical to the one it
// crashed with (for the history the store still holds; it cuts only
// data older than the retention window). The store rebuilds each
// entity's tail itself.
//
// Latest and every watchTime average are served from the tail in
// memory, each entity's newest 64 samples; Window, AverageCPU,
// AverageMem and PercentileCPU read sealed blocks from disk when asked
// for minutes below it, and return the store's error if that fails. The
// store also adds durability, and keeps raw minutes only: the day
// profile is the archive's one aggregated view.
func NewBacked(dir string, retention int, opts tsdb.Options) (*Archive, error) {
	st, err := tsdb.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	a := over(st, retention)
	names := st.Entities()
	a.Preallocate(names...)
	for _, entity := range names {
		l := a.log(entity)
		l.stored = st.Lookup(entity)
		if l.ingested, err = st.Count(l.stored); err != nil {
			st.Close()
			return nil, err
		}
	}
	return a, nil
}

// Commit makes every sample recorded since the last call durable in
// one batched segment write. The coordinator calls it once per
// observed minute — "acked" load history means "the minute closed".
// An in-memory archive seals its full blocks and writes nothing.
func (a *Archive) Commit() error { return a.store.Commit() }

// Maintain is the once-per-minute housekeeping call: commit the
// minute's samples, and once per hour cut the history older than the
// retention window (tsdb.Store.CompactBefore, which aligns the cut down
// to the hour, so up to an hour more is kept). Raw minute resolution —
// and with it the day profile's inputs — is preserved for the full
// retention window.
func (a *Archive) Maintain(minute int) error {
	if err := a.store.Commit(); err != nil {
		return err
	}
	if minute > a.retention && minute%60 == 0 {
		return a.store.CompactBefore(minute - a.retention)
	}
	return nil
}

// Instrument attaches an obs registry: entities and day profiles held,
// reads that needed a sealed block from disk, and a disk store's own
// families (segments, retention cuts, commits, disk). Attach-only and
// nil-safe.
func (a *Archive) Instrument(r *obs.Registry) {
	r.Help(MetricDeepReads, "Reads that needed a sealed block not held raw in memory: on disk, one that reaches past an entity's newest 64 samples.")
	r.Help(MetricEntities, "Entities held: a header and a tsdb tail each.")
	r.Help(MetricProfiles, "Entities holding a day profile: all but service instances, and none until a reader keeps profiles.")
	a.deepReads = r.Counter(MetricDeepReads)
	a.entityNum = r.Gauge(MetricEntities)
	a.entityNum.Set(float64(len(a.entities)))
	a.profileNum = r.Gauge(MetricProfiles)
	a.profileNum.Set(float64(a.profiles))
	a.store.Instrument(r)
}

// Close commits buffered samples and closes the store. Latest and the
// reads the tail (or, in memory, the raw blocks) answer go on; further
// Records, and reads that need the disk, fail with tsdb.ErrClosed.
func (a *Archive) Close() error { return a.store.Close() }
