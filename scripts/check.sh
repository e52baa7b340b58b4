#!/bin/sh
# scripts/check.sh — the tier-1 gate (see ROADMAP.md): formatting, vet,
# the metric-name lint, the import lints (non-test internal/wire does
# not import encoding/json, internal/tsdb sync, internal/agent
# math/rand), the storage lint
# (only internal/journal creates, writes, renames or removes a file),
# every examples/* program built and run (a non-zero exit fails the
# gate), every test twice (under the race detector, then
# race-free — the *ZeroAlloc guards and the root package's surface
# ratchet skip themselves under -race, so the second pass is the one in
# which they assert, and the allocation guards — the simulator's exact
# window count, the agent's zero-alloc heartbeat round trip and minute
# and its dispatch path's exact count, the tsdb's zero-alloc append path
# and its seal burst that allocates the same at 400 and 4,000
# entities — run twenty more times each, so a flaky count
# fails the gate; the ratchet fails when a line joins SURFACE.txt: an
# exported name in internal/ without a non-test caller outside its
# package, an unexported function no non-test code calls, or an
# exported field nobody sets or reads), the daemon test
# that restarts an agent over real HTTP ten more times on one CPU, the
# ingest and dispatch concurrency tests — the session dictionary, the
# single ingest lock that guards it with every pending beat and every
# host's failure-detector state, and journaled dispatch — and the
# coordinator's Handle beaten concurrently while the minute checks
# liveness (TestLivenessHandleConcurrentBeats, in internal/monitor's
# external test package) ten more times under the race detector, the
# Table 7 golden file (the exact text of
# `autoglobe-sim -table7 -seeds 3`) once more on one CPU, so the
# parallel sweep is shown to assemble the bytes a single worker does,
# ten seconds each of real fuzzing of the wire frame decoder, of the
# coordinator's receive path (any bytes through that decoder into a
# paper-landscape coordinator's Handle: FuzzCoordinatorReceive),
# of the journal's frame reader, of the tsdb segment-record decoder, of
# the tsdb tail's windows against the reference in its test
# (FuzzTailWindows), of
# the closed-form inference against its two references, of memoised
# server selection vs the full-scan reference in its test
# (FuzzSelectHostParity) and of the deployment's ID-sorted instance
# snapshots against the instance map filtered and sorted by ID
# (FuzzDeploymentSnapshots), of the simulator's host, service and
# instance slots against the landscape read afresh (FuzzSimulatorSlots),
# of the monitor's watch machine against its CPU-and-memory reference
# (FuzzWatchMatchesReference), of the coordinator's liveness check (the
# hosts it probes and its verdicts) against its four-call reference
# (FuzzLivenessMatchesReference) and of the archive's day profiles built
# on demand against profiles kept from the start
# (FuzzKeepProfilesMatchesLive), and every benchmark of the root package,
# internal/archive and internal/tsdb once as a crash smoke. A new test or
# guard needs no edit here.
#
# Usage: scripts/check.sh   (from anywhere)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l cmd internal bench examples ./*.go)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

# Every metric family declared as a Metric* constant lives in the
# autoglobe_ namespace and ends in a unit suffix (the state-gauge suffix
# "role", or for the gauge of a population what it counts), so the
# exposition stays scrapeable and greppable.
echo "== metric-name lint"
bad=$(grep -rhoE 'Metric[A-Za-z]+ += +"[^"]*"' internal --include='metrics.go' |
	grep -vE '= +"autoglobe_[a-z_]+_(total|seconds|minutes|role|hosts|shapes)"' || true)
if [ -n "$bad" ]; then
	echo "metric-name lint: families outside the naming convention:" >&2
	echo "$bad" >&2
	exit 1
fi

# Import lints, one a line: lint|package|banned import (an extended
# regexp matched against whole import paths)|what the message names.
#   wire      binary frames are the only wire encoding: a second
#             envelope codec must not creep back into the package.
#   tsdb      a tsdb store has one owner and no lock: the archive's owner
#             appends, commits, compacts and reads it.
#   dispatch  the dispatcher keeps no per-host state: a retry's jitter
#             is a hash of its key and attempt, not a per-host generator.
while IFS='|' read -r lint pkg banned names; do
	echo "== $lint lint: non-test $pkg does not import ${names%% or *}"
	if go list -f '{{range .Imports}}{{println .}}{{end}}' "./$pkg" | grep -qxE "$banned"; then
		echo "$lint lint: $pkg imports $names" >&2
		exit 1
	fi
done <<'EOF'
wire|internal/wire|(.*/)?encoding/json(/.*)?|encoding/json
tsdb|internal/tsdb|sync(/atomic)?|sync or sync/atomic
dispatch|internal/agent|math/rand(/v2)?|math/rand
EOF

# One module decides how a durable segment is named, opened, rotated,
# synced and read back: the journal and every tsdb tier run on
# journal.Segments, and nothing else in internal/ touches a file.
echo "== storage lint: non-test internal/ outside internal/journal creates, writes, renames or removes no file"
bad=$(grep -rnE '\bos\.(OpenFile|Create|CreateTemp|WriteFile|Rename|Remove|RemoveAll|Mkdir|MkdirAll)\(' internal \
	--include='*.go' --exclude='*_test.go' --exclude-dir=journal || true)
if [ -n "$bad" ]; then
	echo "storage lint: file writes outside internal/journal:" >&2
	echo "$bad" >&2
	exit 1
fi

# Compiling the examples is not enough: each one exercises an API path
# (semi-automatic approval, transactional rollback, the designer) that
# no daemon runs. About 1 s for all of them.
echo "== examples: build and run each"
for ex in examples/*/; do
	echo "-- $ex"
	go run "./$ex" >/dev/null
done

echo "== go test -race ./..."
go test -race ./...

echo "== go test ./...   (race-free: the zero-alloc guards assert here)"
go test ./...

# An allocation guard that passes most of the time is not a guard: the
# exact window count, the zero-alloc heartbeat round trip and minute,
# the dispatch path's exact count, the tsdb's zero-alloc append path and
# its bounded seal burst must read the same twenty times in one process.
# About 6 s.
echo "== go test -count=20: the allocation guards"
go test -count=20 -run '^TestSimulatorStepAllocs$' ./internal/simulator
go test -count=20 -run '^(TestHeartbeatPathZeroAlloc|TestMinuteZeroAlloc|TestDispatchPathZeroAlloc)$' ./internal/agent
go test -count=20 -run '^(TestSealBurstBounded|TestTSDBAppendPathZeroAlloc)$' ./internal/tsdb

# The sweep runs its points on GOMAXPROCS workers and assembles them in
# order: one worker must print the same 73 lines the race-free pass
# compared. About 1.6 s.
echo "== go test -cpu 1: the Table 7 golden file on one worker"
go test -count=1 -cpu 1 -run '^TestTable7Golden$' ./internal/experiments

# A wait that holds only when the daemons keep pace is a flake: the
# restarted agent's host must be archived past the restart however the
# coordinator's and the agent's tickers interleave. One CPU makes the
# goroutines take turns. About 1 s.
echo "== go test -count=10 -cpu 1: the coordinator and agents over real HTTP"
go test -count=10 -cpu 1 -run '^TestCoordinatorAndAgentsOverHTTP$' ./cmd/autoglobe-agentd

# One pass rarely schedules the interleaving a race needs: 32 reporters
# against the minute close, Forget and the election's Follows query; 64
# direct ingesters against the same close (one lock guards both the
# session dictionary and every pending beat); and concurrent journaled
# dispatch; and 32 goroutines beating through the coordinator's Handle
# while the minute runs CheckLiveness and Release. About 7 s on 2 vCPUs.
echo "== go test -race -count=10: the ingest, dispatch and liveness concurrency tests"
go test -race -count=10 -run '^(TestSessionConcurrentReporters|TestConcurrentIngestStress|TestDispatchConcurrentCallersStress)$' ./internal/agent
go test -race -count=10 -run '^TestLivenessHandleConcurrentBeats$' ./internal/monitor

# Replaying the seed corpus (which the two passes above do) is not
# fuzzing: the decoder reads whatever an unauthenticated peer sends.
echo "== fuzz: the wire frame decoder, 10 s"
go test ./internal/wire -run '^$' -fuzz FuzzEnvelopeDecode -fuzztime 10s

# Behind the decoder, the coordinator's handler takes whatever decodes:
# no input may panic it, produce a reply that does not encode, or lower
# its heartbeat count, and no retired rule-admin kind (7, 8, 9) may
# decode to reach it.
echo "== fuzz: the coordinator's receive path, 10 s"
go test ./internal/agent -run '^$' -fuzz FuzzCoordinatorReceive -fuzztime 10s

# Every journal replay — the coordinator's WAL and the tsdb's segments —
# starts by cutting whatever a crash left on disk into frames.
echo "== fuzz: the journal frame reader, 10 s"
go test ./internal/journal -run '^$' -fuzz FuzzFrames -fuzztime 10s

# What replay decodes is whatever a crash, a full disk or bit rot left
# inside a frame whose checksum still holds.
echo "== fuzz: the tsdb record decoder (rows included), 10 s"
go test ./internal/tsdb -run '^$' -fuzz FuzzRecordDecode -fuzztime 10s

# The tail holds each entity's newest 64 samples: after any run of
# repeated and skipped minutes, commits, retention cuts, reopens and
# torn seals, every window back from the newest sample must read as the
# reference does, and report a disk read exactly when it reaches past the
# tail. Minimization stops at 100 runs.
echo "== fuzz: the tsdb tail's windows vs the reference, 10 s"
go test ./internal/tsdb -run '^$' -fuzz FuzzTailWindows -fuzztime 10s -fuzzminimizetime 100x

# Exact by an argument, and checked on rule bases nobody wrote.
echo "== fuzz: closed-form leftmost maximum vs sampled union vs interpreter, 10 s"
go test ./internal/fuzzy -run '^$' -fuzz FuzzInferDifferential -fuzztime 10s

# A candidate's score memo must be exact under any sequence of archive
# appends, protection churn, rule swaps and shadow selections. The
# loop's inputs are long, and minimizing one new input at the default
# 60 s would spend the whole budget: minimization stops at 100 runs.
echo "== fuzz: memoised server selection vs the full-scan reference in its test, 10 s"
go test ./internal/controller -run '^$' -fuzz FuzzSelectHostParity -fuzztime 10s -fuzzminimizetime 100x

# Every reader of the landscape walks the deployment's snapshots: any
# start, stop or move sequence must leave them equal to the instance map
# filtered and sorted afresh, and a snapshot handed out earlier intact.
echo "== fuzz: deployment instance snapshots vs the filtered instance map, 10 s"
go test ./internal/service -run '^$' -fuzz FuzzDeploymentSnapshots -fuzztime 10s

# The simulator's minute walks slots it keeps current from pool changes,
# deployment mutations and the instance snapshot: after any start, stop,
# move, crash or pool change, a cached host load must equal a fresh sum
# over the host's instances and a service's fraction the generator's.
# Minimization stops at 100 runs, as for the selection fuzzer.
echo "== fuzz: simulator slots vs the landscape read afresh, 10 s"
go test ./internal/simulator -run '^$' -fuzz FuzzSimulatorSlots -fuzztime 10s -fuzzminimizetime 100x

# One watch machine serves CPU and memory, and one sweep judges a
# minute's deaths and recoveries: any loads (−0, NaN and ±Inf
# included) under any parameters, and any schedule of beats, replays,
# deaths, releases, skipped and repeated minutes, must answer as the
# references in the test files do. Minimization stops at 100 runs.
echo "== fuzz: the watch machine and the liveness sweep vs their references, 10 s each"
go test ./internal/monitor -run '^$' -fuzz FuzzWatchMatchesReference -fuzztime 10s -fuzzminimizetime 100x
go test ./internal/monitor -run '^$' -fuzz FuzzLivenessMatchesReference -fuzztime 10s -fuzzminimizetime 100x

# A day profile is built on demand, from whatever the store holds raw:
# after any history of gaps, jumps across midnight, retention cuts and
# reopens, it must equal the raw survivors folded in order and lack,
# against a profile kept from the start, exactly the minutes cut.
# Minimization stops at 100 runs.
echo "== fuzz: day profiles kept late vs kept from the start, 10 s"
go test ./internal/archive -run '^$' -fuzz FuzzKeepProfilesMatchesLive -fuzztime 10s -fuzzminimizetime 100x

# The archive's and the store's benchmarks set up the tail, the raw
# blocks of a memory store and a reopen: the smoke runs their setup too.
echo "== benchmark smoke: root package, archive and tsdb benchmarks, one iteration"
go test -run '^$' -bench . -benchtime=1x -benchmem . ./internal/archive ./internal/tsdb

echo "check.sh: all gates passed"
