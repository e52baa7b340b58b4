package tsdb

import (
	"time"

	"autoglobe/internal/obs"
)

// Metric families the load archive emits.
const (
	// MetricSegments counts segment files opened, by tier (minute, hour,
	// day, dict).
	MetricSegments = "autoglobe_archive_segments_total"
	// MetricCompactions counts roll-ups committed, by destination tier.
	MetricCompactions = "autoglobe_archive_compactions_total"
	// MetricWritten counts bytes appended to segments, by tier.
	MetricWritten = "autoglobe_archive_written_bytes_total"
	// MetricBlocks counts sealed 64-sample blocks, row frames and
	// compacted aggregates written, by kind.
	MetricBlocks = "autoglobe_archive_blocks_total"
	// MetricCommit times every Commit that wrote something, dictionary
	// write and fsyncs included.
	MetricCommit = "autoglobe_archive_commit_seconds"
	// MetricSync times every segment fsync (none under Options.NoSync).
	MetricSync = "autoglobe_archive_sync_seconds"
	// MetricCacheReads counts hot-block cache lookups, by result — the
	// hit ratio of the controller's steady-state read path.
	MetricCacheReads = "autoglobe_archive_cache_reads_total"
	// MetricDiskBytes gauges the bytes currently on disk across all
	// live segments (grows with commits, shrinks with pruning).
	MetricDiskBytes = "autoglobe_archive_disk_bytes_total"
)

// Label values of MetricBlocks, indexing storeMetrics.blocks.
const (
	kindSealed = iota
	kindRow
	kindAgg
)

// storeMetrics pre-resolves the store's series. Nil-safe: an
// uninstrumented store pays one pointer test per event.
type storeMetrics struct {
	segments    [4]*obs.Counter
	compactions [4]*obs.Counter
	written     [4]*obs.Counter
	blocks      [3]*obs.Counter // by kindSealed, kindRow, kindAgg
	commit      *obs.Histogram
	sync        *obs.Histogram
	hits        *obs.Counter
	misses      *obs.Counter
	disk        *obs.Gauge
}

func newStoreMetrics(r *obs.Registry) *storeMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricSegments, "Segment files opened, by tier.")
	r.Help(MetricCompactions, "Roll-ups committed, by destination tier.")
	r.Help(MetricWritten, "Bytes appended to archive segments, by tier.")
	r.Help(MetricBlocks, "Sealed blocks, row frames and aggregates written, by kind.")
	r.Help(MetricCommit, "Latency of archive commits that wrote, in seconds.")
	r.Help(MetricSync, "Latency of archive segment fsyncs, in seconds.")
	r.Help(MetricCacheReads, "Hot-block cache lookups, by result.")
	r.Help(MetricDiskBytes, "Bytes currently on disk across live segments.")
	m := &storeMetrics{
		blocks: [3]*obs.Counter{
			kindSealed: r.Counter(MetricBlocks, "kind", "sealed"),
			kindRow:    r.Counter(MetricBlocks, "kind", "row"),
			kindAgg:    r.Counter(MetricBlocks, "kind", "agg"),
		},
		commit: r.Histogram(MetricCommit, obs.LatencySecondsBuckets()),
		sync:   r.Histogram(MetricSync, obs.LatencySecondsBuckets()),
		hits:   r.Counter(MetricCacheReads, "result", "hit"),
		misses: r.Counter(MetricCacheReads, "result", "miss"),
		disk:   r.Gauge(MetricDiskBytes),
	}
	for t := 0; t < 4; t++ {
		m.segments[t] = r.Counter(MetricSegments, "tier", tierPrefix[t])
		m.compactions[t] = r.Counter(MetricCompactions, "tier", tierPrefix[t])
		m.written[t] = r.Counter(MetricWritten, "tier", tierPrefix[t])
	}
	return m
}

func (m *storeMetrics) segment(tier int) {
	if m != nil {
		m.segments[tier].Inc()
	}
}

func (m *storeMetrics) wrote(tier, n int, disk int64) {
	if m != nil {
		m.written[tier].Add(float64(n))
		m.disk.Set(float64(disk))
	}
}

func (m *storeMetrics) addBlocks(kind, n int) {
	if m != nil && n != 0 {
		m.blocks[kind].Add(float64(n))
	}
}

// start reads the clock for a latency observation — only when there is
// a histogram to feed.
func (m *storeMetrics) start() (t0 time.Time) {
	if m != nil {
		t0 = time.Now()
	}
	return t0
}

func (m *storeMetrics) committed(t0 time.Time) {
	if m != nil {
		m.commit.Observe(time.Since(t0).Seconds())
	}
}

func (m *storeMetrics) synced(t0 time.Time) {
	if m != nil {
		m.sync.Observe(time.Since(t0).Seconds())
	}
}

func (m *storeMetrics) compacted(destTier, aggCount int, disk int64) {
	if m != nil {
		m.compactions[destTier].Inc()
		m.blocks[kindAgg].Add(float64(aggCount))
		m.disk.Set(float64(disk))
	}
}

func (m *storeMetrics) pruned(disk int64) {
	if m != nil {
		m.disk.Set(float64(disk))
	}
}

func (m *storeMetrics) cache(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
}

// Instrument attaches an obs registry to the store: segments opened,
// bytes written, blocks sealed, commit and fsync latency, compactions
// committed, cache hit ratio and live disk footprint. Attach-only and
// nil-safe, like every other family — a nil registry leaves the store
// uninstrumented and the hot paths pay a single pointer test.
func (st *Store) Instrument(r *obs.Registry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.m = newStoreMetrics(r)
	if st.m != nil {
		st.m.disk.Set(float64(st.diskBytes))
	}
}
