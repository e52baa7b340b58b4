package agent

import (
	"time"

	"autoglobe/internal/obs"
)

// Metric families the control-plane agent layer emits.
const (
	// MetricDispatchAttempts counts individual delivery attempts,
	// including retries after lost requests or lost acks.
	MetricDispatchAttempts = "autoglobe_dispatch_attempts_total"
	// MetricDispatch counts logical dispatch outcomes by kind:
	// ack (the agent applied the operation), nack (the agent refused),
	// expired (no ack after MaxAttempts).
	MetricDispatch = "autoglobe_dispatch_total"
	// MetricDispatchDuplicates counts acks served from an agent's
	// idempotency cache — evidence a retry re-delivered an operation.
	MetricDispatchDuplicates = "autoglobe_dispatch_duplicates_total"
	// MetricDispatchCompensations counts compensating (Undo) dispatches
	// issued while rolling back a partially applied compound action.
	MetricDispatchCompensations = "autoglobe_dispatch_compensations_total"
	// MetricHeartbeats counts heartbeats the coordinator ingested.
	MetricHeartbeats = "autoglobe_heartbeats_total"
	// MetricHeartbeatNamedFrames counts the ingested heartbeats that
	// arrived by name (first contact, a changed instance list, a change
	// of coordinator, a resync, a drained backlog); the rest of
	// MetricHeartbeats arrived as session-dictionary indices.
	MetricHeartbeatNamedFrames = "autoglobe_heartbeat_named_frames_total"
	// MetricHeartbeatResyncs counts indexed heartbeats refused because
	// their session or an index was not this coordinator's; each costs
	// its reporter one named re-send of the same minute.
	MetricHeartbeatResyncs = "autoglobe_heartbeat_resyncs_total"
	// MetricHeartbeatSessionNames gauges, per coordinator node, the names
	// its session dictionary holds (at most maxSessionNames).
	MetricHeartbeatSessionNames = "autoglobe_heartbeat_session_names_total"
	// MetricHeartbeatLag is a histogram of heartbeat staleness: how many
	// minutes behind the coordinator's newest observed minute a
	// heartbeat arrived. 0 is the healthy steady state.
	MetricHeartbeatLag = "autoglobe_heartbeat_ingest_lag_minutes"
	// MetricMergeSeconds is a histogram of the coordinator's minute
	// close (the merge of the buffered beats, monitor pipeline, service
	// close).
	MetricMergeSeconds = "autoglobe_coordinator_merge_seconds"
	// MetricMergeEntities counts the entities minute closes observed, by
	// class (host, instance, service).
	MetricMergeEntities = "autoglobe_coordinator_merge_entities_total"
	// MetricMinuteStage is a histogram family of the control-plane
	// minute's stage durations, one series per stage (see MinuteStages).
	MetricMinuteStage = "autoglobe_minute_stage_seconds"
	// MetricJournalAppends counts write-ahead journal records by kind
	// (dispatch, ack, liveness).
	MetricJournalAppends = "autoglobe_journal_appends_total"
	// MetricJournalSnapshots counts journal compactions.
	MetricJournalSnapshots = "autoglobe_journal_snapshots_total"
	// MetricJournalGroupCommits named the group committer's flushes of
	// more than one record. The committer is gone (every record is its
	// own append) and nothing registers the family; the name stays only
	// because the benchmark harness reads it, and an absent family reads 0.
	MetricJournalGroupCommits = "autoglobe_journal_group_commits_total"
	// MetricRecoveries counts coordinator recoveries (journal replays
	// that found state to rebuild).
	MetricRecoveries = "autoglobe_recoveries_total"
	// MetricRecoveryPending counts actions found pending — dispatched,
	// fate unknown — across all recoveries; each is re-issued under its
	// original idempotency key.
	MetricRecoveryPending = "autoglobe_recovery_pending_total"
	// MetricEpochRejections counts sends an agent fenced for carrying a
	// superseded coordinator epoch — action requests NACKed and lease
	// beacons rebuffed, both traffic from a not-quite-dead predecessor
	// incarnation.
	MetricEpochRejections = "autoglobe_agent_epoch_rejections_total"
	// MetricElectionTakeovers counts leadership takeovers: a standby's
	// lease on its leader expired and it durably bumped the epoch,
	// recovered the journal and announced itself.
	MetricElectionTakeovers = "autoglobe_election_takeovers_total"
	// MetricElectionRole is a per-member gauge: 1 while the member acts
	// as leader, 0 while standby or down.
	MetricElectionRole = "autoglobe_election_role"
	// MetricElectionBufferedMinutes gauges how many heartbeat minutes
	// agents currently hold buffered for a leaderless window — nonzero
	// while a failover is in progress, draining to zero on redirect.
	MetricElectionBufferedMinutes = "autoglobe_election_buffered_minutes"
	// MetricElectionBeacons counts lease renewals sent, by receiver:
	// to="member" (every live member, every minute) and to="agent" (only
	// agents whose last beat did not prove they follow the sender).
	MetricElectionBeacons = "autoglobe_election_beacons_total"
	// MetricLiveness counts host liveness transitions: dead (a host
	// completed its consecutive missed probes) and recovered (a dead host
	// completed its beat streak).
	MetricLiveness = "autoglobe_liveness_transitions_total"
)

// dispatchMetrics pre-resolves the dispatcher's series. Nil-safe.
type dispatchMetrics struct {
	attempts      *obs.Counter
	acks          *obs.Counter
	nacks         *obs.Counter
	expired       *obs.Counter
	duplicates    *obs.Counter
	compensations *obs.Counter
}

func newDispatchMetrics(r *obs.Registry) *dispatchMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricDispatchAttempts, "Delivery attempts, retries included.")
	r.Help(MetricDispatch, "Logical dispatch outcomes, by kind.")
	r.Help(MetricDispatchDuplicates, "Acks served from an agent idempotency cache.")
	r.Help(MetricDispatchCompensations, "Compensating dispatches during rollback.")
	return &dispatchMetrics{
		attempts:      r.Counter(MetricDispatchAttempts),
		acks:          r.Counter(MetricDispatch, "outcome", "ack"),
		nacks:         r.Counter(MetricDispatch, "outcome", "nack"),
		expired:       r.Counter(MetricDispatch, "outcome", "expired"),
		duplicates:    r.Counter(MetricDispatchDuplicates),
		compensations: r.Counter(MetricDispatchCompensations),
	}
}

func (m *dispatchMetrics) attempt() {
	if m != nil {
		m.attempts.Inc()
	}
}

func (m *dispatchMetrics) ok(duplicate bool) {
	if m == nil {
		return
	}
	m.acks.Inc()
	if duplicate {
		m.duplicates.Inc()
	}
}

func (m *dispatchMetrics) nack() {
	if m != nil {
		m.nacks.Inc()
	}
}

func (m *dispatchMetrics) expire() {
	if m != nil {
		m.expired.Inc()
	}
}

func (m *dispatchMetrics) compensation() {
	if m != nil {
		m.compensations.Inc()
	}
}

// coordMetrics pre-resolves the coordinator's series. Nil-safe.
type coordMetrics struct {
	heartbeats *obs.Counter
	named      *obs.Counter
	resyncs    *obs.Counter
	names      *obs.Gauge
	lag        *obs.Histogram
	merge      *obs.Histogram
	entities   [3]*obs.Counter // host, instance, service
}

func newCoordMetrics(r *obs.Registry, node string) *coordMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricHeartbeats, "Heartbeats ingested by the coordinator.")
	r.Help(MetricHeartbeatNamedFrames, "Ingested heartbeats that arrived by name, not by session index.")
	r.Help(MetricHeartbeatResyncs, "Indexed heartbeats refused for a session or index the coordinator does not hold.")
	r.Help(MetricHeartbeatSessionNames, "Host and instance names held in the coordinator's session dictionary.")
	r.Help(MetricHeartbeatLag, "Heartbeat staleness in minutes behind the newest observed minute.")
	r.Help(MetricMergeSeconds, "Duration of the coordinator's minute close.")
	r.Help(MetricMergeEntities, "Entities observed by minute closes, by class.")
	m := &coordMetrics{
		heartbeats: r.Counter(MetricHeartbeats),
		named:      r.Counter(MetricHeartbeatNamedFrames),
		resyncs:    r.Counter(MetricHeartbeatResyncs),
		names:      r.Gauge(MetricHeartbeatSessionNames, "node", node),
		lag:        r.Histogram(MetricHeartbeatLag, []float64{0, 1, 2, 5, 10}),
		merge:      r.Histogram(MetricMergeSeconds, obs.LatencySecondsBuckets()),
	}
	for i, class := range []string{"host", "instance", "service"} {
		m.entities[i] = r.Counter(MetricMergeEntities, "class", class)
	}
	return m
}

func (m *coordMetrics) ingest(lagMinutes int) {
	if m == nil {
		return
	}
	m.heartbeats.Inc()
	m.lag.Observe(float64(lagMinutes))
}

func (m *coordMetrics) namedFrame() {
	if m != nil {
		m.named.Inc()
	}
}

func (m *coordMetrics) resync() {
	if m != nil {
		m.resyncs.Inc()
	}
}

// merged records one minute close, the entities it observed and the
// names the session dictionary holds by now.
func (m *coordMetrics) merged(start time.Time, seen [3]int, names int) {
	if m == nil {
		return
	}
	m.names.Set(float64(names))
	m.merge.Observe(time.Since(start).Seconds())
	for i, n := range seen {
		m.entities[i].Add(float64(n))
	}
}

// journalMetrics pre-resolves the coordinator journal's series.
// Nil-safe: an uninstrumented journal carries a nil *journalMetrics.
type journalMetrics struct {
	appends    map[string]*obs.Counter // by record kind
	snapshots  *obs.Counter
	recoveries *obs.Counter
	pending    *obs.Counter
}

func newJournalMetrics(r *obs.Registry) *journalMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricJournalAppends, "Write-ahead journal records appended, by kind.")
	r.Help(MetricJournalSnapshots, "Journal compactions.")
	r.Help(MetricRecoveries, "Coordinator journal recoveries.")
	r.Help(MetricRecoveryPending, "Pending actions found and re-issued across recoveries.")
	m := &journalMetrics{
		appends:    make(map[string]*obs.Counter, 3),
		snapshots:  r.Counter(MetricJournalSnapshots),
		recoveries: r.Counter(MetricRecoveries),
		pending:    r.Counter(MetricRecoveryPending),
	}
	for _, kind := range []string{recDispatch, recAck, recLiveness} {
		m.appends[kind] = r.Counter(MetricJournalAppends, "kind", kind)
	}
	return m
}

func (m *journalMetrics) appendRecord(kind string) {
	if m == nil {
		return
	}
	if c, ok := m.appends[kind]; ok {
		c.Inc()
	}
}

func (m *journalMetrics) snapshot() {
	if m != nil {
		m.snapshots.Inc()
	}
}

func (m *journalMetrics) recovery(pending int) {
	if m == nil {
		return
	}
	m.recoveries.Inc()
	m.pending.Add(float64(pending))
}

// electionMetrics pre-resolves the election's series. Nil-safe.
type electionMetrics struct {
	r         *obs.Registry
	takeovers *obs.Counter
	buffered  *obs.Gauge
	toMember  *obs.Counter
	toAgent   *obs.Counter
}

func newElectionMetrics(r *obs.Registry) *electionMetrics {
	if r == nil {
		return nil
	}
	r.Help(MetricElectionTakeovers, "Leadership takeovers after lease expiry.")
	r.Help(MetricElectionRole, "Per-member leadership role: 1 leader, 0 standby or down.")
	r.Help(MetricElectionBufferedMinutes, "Heartbeat minutes buffered agent-side awaiting a leader.")
	r.Help(MetricElectionBeacons, "Lease renewals sent, by receiver (member or agent).")
	return &electionMetrics{
		r:         r,
		takeovers: r.Counter(MetricElectionTakeovers),
		buffered:  r.Gauge(MetricElectionBufferedMinutes),
		toMember:  r.Counter(MetricElectionBeacons, "to", "member"),
		toAgent:   r.Counter(MetricElectionBeacons, "to", "agent"),
	}
}

func (m *electionMetrics) takeover() {
	if m != nil {
		m.takeovers.Inc()
	}
}

func (m *electionMetrics) beacons(members, agents int) {
	if m != nil {
		m.toMember.Add(float64(members))
		m.toAgent.Add(float64(agents))
	}
}

func (m *electionMetrics) role(node string, leading bool) {
	if m == nil {
		return
	}
	v := 0.0
	if leading {
		v = 1
	}
	m.r.Gauge(MetricElectionRole, "member", node).Set(v)
}

func (m *electionMetrics) bufferedDepth(n int) {
	if m != nil {
		m.buffered.Set(float64(n))
	}
}
