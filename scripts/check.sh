#!/bin/sh
# scripts/check.sh — the tier-1 gate (see ROADMAP.md).
#
# Runs, in order:
#   1. gofmt -l          over the tree (cmd, internal, bench and the root
#      package) — unformatted files fail the gate
#   2. go vet            over every package
#   3. go build          over every package
#   4. go test -race     the full suite under the race detector
#      (exercises the parallel sweep engine, the shared compiled rule
#      bases, the simulator-isolation tests and the control-plane
#      transports concurrently)
#   5. the observability gate: a dedicated race-enabled run of
#      internal/obs (including the Prometheus exposition golden test)
#      plus a lint that every declared metric family keeps the
#      autoglobe_ namespace and a conventional unit suffix (gauges of a
#      population name what they count: hosts, shapes)
#   6. the robustness gate: a race-enabled chaos smoke (the fixed-seed
#      full-day convergence run plus both journal crash-point sweeps —
#      single-record and group-committed batch appends) and the
#      journal fuzz targets replayed over their checked-in seed
#      corpus — a decoder regression against a known-bad frame
#      (torn tail, bit flip, lying length) fails the gate even when
#      no new fuzzing is run
#   7. the archive gate: race-enabled tsdb crash-point sweeps (every
#      torn-tail byte boundary across data, dictionary and compaction
#      records), the tsdb record-decoder fuzz seeds, and the
#      simulator-level backed-run recovery test (a full day's day
#      profiles must come back byte-identical after crash-and-reopen)
#   8. the dispatch gate: a race-enabled run of the concurrent fan-out
#      stress (per-host lanes under injected faults and competing
#      callers) and the worker-count byte-identity proof — the claim
#      that DispatchConfig.Workers is purely a throughput knob
#   9. the rules gate: race-enabled runs of the versioned rule
#      registry, the controller's hot-swap and shadow-evaluation
#      tests (swap under concurrent inference, perturbed-candidate
#      diffing) and the coordinator rule-push/journal-recovery tests,
#      plus the rule-parser fuzz target replayed over its seed corpus
#      (the multi-line grammar — newlines inside parenthesized groups —
#      and the String→Parse round trip the registry depends on); the
#      zero-alloc guard proving inference stays 0 allocs/op after a
#      hot swap runs race-free in the perf gate below
#  10. the HA gate: race-enabled runs of the coordinator failover
#      machinery — the lease tracker, the in-process election tests
#      (lease-expiry takeover, isolated-leader fencing), the
#      leader-death crash-point sweep (WarmReplay + Takeover at every
#      journal byte boundary), the agent-side graceful-degradation
#      tests (bounded heartbeat ring, bounded send retry), and the
#      full-day failover acceptance run (≥3 seeded leader kills plus a
#      split-brain drill must converge byte-identically to the
#      fault-free landscape, one epoch bump per takeover, gap-free day
#      profiles); the wire fuzz seed corpus replayed in the robustness
#      gate above already covers the lease/leaseAck envelopes
#  11. the selection gate: race-enabled byte-identity proofs for the
#      server-selection access paths — the placement index vs the
#      full-cluster scan (including the 10k-step randomized mutation
#      property test) and parallel candidate scoring at 1 and 8
#      workers — the claim that the index and SelectionWorkers are
#      pure access-path/throughput knobs that never change a decision
#  12. the perf gate: the wire fuzz target replayed over its
#      checked-in seed corpus (hostile frames must keep failing
#      cleanly), the zero-allocation guardrails on the steady-state
#      heartbeat AND dispatch paths and the 1,007-host minute close
#      (plain and HA, registry attached) plus the archive append, the
#      forecast read paths (single prediction and horizon peak), the
#      controller's per-minute proactive scan and the placement
#      index's host refresh on the 1,007-host fleet (race-free runs,
#      because race instrumentation allocates inside sync.Pool), and
#      short smoke runs of the inference fast-path, 1,000-host
#      ingest and minute close, single-action dispatch, 1,000-host
#      fan-out, 1,000-host server selection, placement-index build
#      and host refresh, and tsdb append/hot-read benchmarks, so a
#      regression that breaks the compiled path, the pooled codec,
#      the sharded merge, the pooled dispatch path, the indexed
#      selection path or the pooled segment buffers shows up even
#      when no test asserts on speed
#
# Usage: scripts/check.sh   (from the repository root)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l cmd internal bench ./*.go)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== observability gate: vet + race tests + exposition golden"
go vet ./internal/obs/...
go test -race ./internal/obs/...

# Metric-name lint: every metric family declared as a Metric* constant
# must live in the autoglobe_ namespace and end in a conventional unit
# suffix (the state-gauge suffix "role", or for the gauge of a
# population what it counts: "hosts", "shapes"), so the exposition stays
# scrapeable and greppable.
bad=$(grep -rhoE 'Metric[A-Za-z]+ += +"[^"]*"' internal --include='metrics.go' |
	grep -vE '= +"autoglobe_[a-z_]+_(total|seconds|minutes|role|hosts|shapes)"' || true)
if [ -n "$bad" ]; then
	echo "metric-name lint: families outside the naming convention:" >&2
	echo "$bad" >&2
	exit 1
fi

echo "== robustness gate: chaos smoke + journal fuzz seed corpus"
# The fixed-seed chaos convergence run and the journal crash-point
# sweeps are the acceptance tests of the crash-safety work: a full
# simulated day under fault injection must converge to the fault-free
# landscape, and a coordinator killed at every journal-record boundary
# — including every frame boundary INSIDE a group-committed batch
# append — must neither duplicate nor lose an action. (The
# TestCrashPointSweep prefix matches both the single-record and the
# group-commit sweep.)
go test -race -run 'TestChaosConvergesToFaultFreeLandscape' ./internal/simulator/
go test -race -run 'TestCrashPointSweep' ./internal/agent/
# Replay the fuzz targets over their checked-in seed corpus (plain
# `go test` runs every seed as a unit case — no -fuzz, no randomness).
go test -race -run 'Fuzz' ./internal/journal/
go test -race -run 'Fuzz' ./internal/wire/

echo "== archive gate: tsdb crash sweeps + fuzz seed corpus + backed-run recovery"
# The disk-backed load archive's acceptance tests: a store killed at
# every byte boundary of a torn tail (data, dictionary and compaction
# watermark records alike) must recover every committed sample and
# never a torn one; the record decoder replayed over its checked-in
# seed corpus must keep rejecting hostile frames cleanly; and a full
# simulated day driven through the real control loop must come back
# byte-identical (same day profiles) after a crash-and-reopen.
go test -race -run 'TestCrashPointSweepTSDB|TestCrashPointSweepDict|TestCrashPointSweepCompaction' ./internal/tsdb/
go test -race -run 'Fuzz' ./internal/tsdb/
go test -race -run 'TestArchiveBackedRunSurvivesCrash' ./internal/simulator/

echo "== dispatch gate: race-enabled fan-out stress + worker parity"
# The concurrent fan-out stress hammers the per-host lanes with
# injected faults and competing callers under the race detector; the
# byte-identity test proves a landscape driven through 1 and through 8
# dispatch workers produces the identical run — Workers is purely a
# throughput knob.
go test -race -run 'TestDoBatchFanoutStress|TestDoBatchPerHostOrdering|TestGroupCommitCoalesces' ./internal/agent/
go test -race -run 'TestDispatchWorkersByteIdentical' ./internal/simulator/

echo "== rules gate: registry + hot-swap/shadow + push recovery + parser fuzz seeds"
# Rule bases are administrable data: the versioned registry, the
# controller's atomic hot-swap point (including a swap racing live
# inference) and shadow evaluation, and the coordinator's
# validate-before-activate push path with journal-logged activations
# all run under the race detector; the parser fuzz seeds pin the
# multi-line grammar and the String→Parse round trip stored sources
# rely on.
go test -race ./internal/rules/
go test -race -run 'TestSwap|TestShadow|TestSelectHostFallback|TestSelectActionsUnknownServiceError' ./internal/controller/
go test -race -run 'TestCoordinatorRule|TestRuleActivationSurvivesRestart' ./internal/agent/
go test -race -run 'TestHotSwapIdenticalBaseMidRunByteIdentical|TestShadowRulesDiffOnSimulatedDay|TestRulesDirActivatesOnStartup' ./internal/simulator/
go test -race -run 'Fuzz' ./internal/fuzzy/

echo "== HA gate: election failover + leader-death crash sweep + full-day convergence"
# The coordinator high-availability acceptance tests, all
# race-enabled: the minute-clock lease tracker; the in-process
# election (lease-expiry takeover with redirect-and-drain, and the
# split-brain drill where a deposed-but-alive leader must be fenced by
# the agents' epoch NACKs and step down); the leader-death crash-point
# sweep proving WarmReplay + Takeover at EVERY byte boundary of the
# dead leader's journal neither duplicates nor loses an action; the
# agent-side graceful-degradation tests (the bounded heartbeat ring
# buffers unsent minutes and drains them oldest-first to the
# successor, the bounded send retry gives up instead of blocking the
# minute loop); and the full-day failover run — ≥3 seeded leader
# kills plus an isolation drill must converge byte-identically to the
# fault-free landscape with one epoch bump per takeover and exactly
# one archived observation per host-minute.
go test -race ./internal/lease/
go test -race -run 'TestElectionFailover|TestElectionIsolatedLeaderFenced|TestLeaderDeathCrashPointSweep|TestReporterBuffersAndDrains|TestReporterBoundedRetry' ./internal/agent/
go test -race -run 'TestFailoverConvergesToFaultFreeLandscape' ./internal/simulator/

echo "== selection gate: index/worker byte-identity + randomized index parity"
# Server selection at scale is an access-path optimization, never a
# behavior change: a paper day decided through the placement index and
# through the full-cluster scan, and with 1 vs 8 scoring workers, must
# be byte-identical runs; the randomized property test drives the
# incremental index through 10k mutation/protection steps against the
# full-scan reference; and the controller-level sweep compares all
# three access paths under random landscape churn.
go test -race -run 'TestSelectionWorkersByteIdentical|TestPlacementIndexByteIdentical' ./internal/simulator/
go test -race -run 'TestIndexMatchesScanRandomized' ./internal/placement/
go test -race -run 'TestSelectHostParityAcrossConfigs|TestSelectActionsTieBreakPinned' ./internal/controller/

echo "== go test -race ./..."
go test -race ./...

echo "== perf gate: zero-alloc heartbeat + dispatch paths (race-free run)"
# The steady-state heartbeat path — reporter batching, binary frame
# codec, loopback delivery, coordinator shard buffering, pooled ack —
# and the steady-state dispatch path — recycled idempotency key,
# pooled envelope and attempt context, bounded agent ack cache and
# audit ring — must allocate nothing. The tests skip themselves under
# -race (race instrumentation allocates inside sync.Pool), so they get
# a dedicated race-free invocation here. So does the minute close: on
# the tiled 1,007-host landscape, with a registry attached, a
# steady-state ObserveServices — plain and HA — walks resolved slots
# and allocates nothing.
go test -run 'TestHeartbeatPathZeroAlloc|TestDispatchPathZeroAlloc|TestTriggerQueueRecycling|TestMinuteCloseZeroAlloc' -count=1 ./internal/agent/
# The inference fast path must stay 0 allocs/op even after a rule-base
# hot swap — the swap is a pointer store, never a de-optimization —
# and the steady-state server-selection path (indexed candidate
# enumeration, bound input vectors, pooled inference, argmax) must
# allocate nothing end to end; neither may a proactive scan minute
# (cached scan list, recycled trigger buffer, resolved counters) with
# a registry attached and triggers raised, nor the placement index's
# host refresh (one state gather, one verdict per constraint shape) on
# the 1,007-host / 636-service fleet with its series attached.
go test -run 'TestInferZeroAllocAfterSwap|TestSelectionPathZeroAlloc|TestProactiveScanZeroAlloc|TestRefreshHostZeroAlloc' -count=1 ./internal/controller/
go test -run 'TestInferVecAllocs' -count=1 ./internal/fuzzy/
# The archive's steady-state write path — ring append, incremental day
# profile, tsdb block write into pooled segment buffers — and the
# forecaster's read paths (one prediction, one horizon peak on a
# resolved entity) must also allocate nothing.
go test -run 'TestTSDBAppendPathZeroAlloc' -count=1 ./internal/tsdb/
go test -run 'TestArchiveRecordPathZeroAlloc' -count=1 ./internal/archive/
go test -run 'TestPredictZeroAlloc|TestPredictPeakZeroAlloc' -count=1 ./internal/forecast/

echo "== benchmark smoke: TSDBAppend + TSDBReadHot (archive hot paths)"
go test -run XXX -bench 'BenchmarkTSDBAppend$|BenchmarkTSDBReadHot$' -benchtime=100x -benchmem ./internal/tsdb/

echo "== benchmark smoke: FuzzyInference (100 iterations)"
go test -run XXX -bench 'BenchmarkFuzzyInference$' -benchtime=100x -benchmem .

echo "== benchmark smoke: CoordinatorIngest1k + MinuteClose1k (one 1,000-host minute)"
go test -run XXX -bench 'BenchmarkCoordinatorIngest1k$|BenchmarkMinuteClose1k$' -benchtime=1x -benchmem .

echo "== benchmark smoke: ActionDispatchLoopback (1,000 dispatches)"
go test -run XXX -bench 'BenchmarkActionDispatchLoopback$' -benchtime=1000x -benchmem .

echo "== benchmark smoke: DispatchFanout1k (one 1,000-host storm per width)"
go test -run XXX -bench 'BenchmarkDispatchFanout1k' -benchtime=1x -benchmem .

echo "== benchmark smoke: SelectHost1k + PlacementIndexBuild1k + RefreshHost1k (server selection per access path, index build and host refresh)"
go test -run XXX -bench 'BenchmarkSelectHost1k$|BenchmarkPlacementIndexBuild1k$|BenchmarkRefreshHost1k$' -benchtime=5x -benchmem .

echo "check.sh: all gates passed"
