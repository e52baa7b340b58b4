package archive

// Metric families of the archive (the store's are in internal/tsdb).
const (
	// MetricDeepReads counts reads that needed a sealed block the store
	// does not hold raw — one below a disk store's tail, an entity's
	// newest 64 samples. The control loop's watchTime averages never
	// should: a watch window longer than 64 minutes counts here.
	MetricDeepReads = "autoglobe_archive_deep_reads_total"
	// MetricEntities gauges the entities held: a header and a tsdb tail
	// each.
	MetricEntities = "autoglobe_archive_entities_total"
	// MetricProfiles gauges the entities holding a day profile: hosts and
	// services, not service instances, and none until a reader calls
	// Archive.KeepProfiles.
	MetricProfiles = "autoglobe_archive_profiles_total"
)
