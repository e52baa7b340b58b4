package archive

// Metric families of the memory tier (the store's are in internal/tsdb).
const (
	// MetricDeepReads counts reads that asked for minutes the in-memory
	// window had evicted and continued into the store. The control
	// loop's watchTime averages never should.
	MetricDeepReads = "autoglobe_archive_deep_reads_total"
	// MetricEntities gauges the entities held: a ring each.
	MetricEntities = "autoglobe_archive_entities_total"
	// MetricProfiles gauges the entities holding a day profile: hosts and
	// services, not service instances.
	MetricProfiles = "autoglobe_archive_profiles_total"
)
