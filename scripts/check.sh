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
# which they assert; the ratchet fails when a line joins SURFACE.txt: an
# exported name in internal/ without a non-test caller outside its
# package, an unexported function no non-test code calls, or an
# exported field nobody sets or reads), the ingest and dispatch
# concurrency tests — the session dictionary, the single ingest lock
# that guards it with every pending beat, and journaled dispatch — and
# the liveness handles beaten concurrently
# (TestLivenessHandleConcurrentBeats) ten more times under the race
# detector, ten seconds
# each of real fuzzing of the wire frame decoder, of the journal's frame reader, of
# the tsdb segment-record decoder, of the closed-form inference
# against its two references, of memoised server selection against
# the full scan (FuzzSelectHostParity) and of the deployment's ID-sorted
# instance snapshots against the instance map filtered and sorted by ID
# (FuzzDeploymentSnapshots), and every benchmark of the root package,
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

# One pass rarely schedules the interleaving a race needs: 32 reporters
# against the minute close, Forget and the election's Follows query; 64
# direct ingesters against the same close (one lock guards both the
# session dictionary and every pending beat); and concurrent journaled
# dispatch; and 32 goroutines beating through cached liveness handles
# while the minute sweeps and Forgets. About 7 s on 2 vCPUs.
echo "== go test -race -count=10: the ingest, dispatch and liveness-handle concurrency tests"
go test -race -count=10 -run '^(TestSessionConcurrentReporters|TestConcurrentIngestStress|TestDispatchConcurrentCallersStress)$' ./internal/agent
go test -race -count=10 -run '^TestLivenessHandleConcurrentBeats$' ./internal/monitor

# Replaying the seed corpus (which the two passes above do) is not
# fuzzing: the decoder reads whatever an unauthenticated peer sends.
echo "== fuzz: the wire frame decoder, 10 s"
go test ./internal/wire -run '^$' -fuzz FuzzEnvelopeDecode -fuzztime 10s

# Every journal replay — the coordinator's WAL and the tsdb's segments —
# starts by cutting whatever a crash left on disk into frames.
echo "== fuzz: the journal frame reader, 10 s"
go test ./internal/journal -run '^$' -fuzz FuzzFrames -fuzztime 10s

# What replay decodes is whatever a crash, a full disk or bit rot left
# inside a frame whose checksum still holds.
echo "== fuzz: the tsdb record decoder (rows included), 10 s"
go test ./internal/tsdb -run '^$' -fuzz FuzzRecordDecode -fuzztime 10s

# Exact by an argument, and checked on rule bases nobody wrote.
echo "== fuzz: closed-form leftmost maximum vs sampled union vs interpreter, 10 s"
go test ./internal/fuzzy -run '^$' -fuzz FuzzInferDifferential -fuzztime 10s

# A candidate's score memo must be exact under any sequence of archive
# appends, protection churn, rule swaps and shadow selections. The
# loop's inputs are long, and minimizing one new input at the default
# 60 s would spend the whole budget: minimization stops at 100 runs.
echo "== fuzz: memoised server selection vs the full scan, 10 s"
go test ./internal/controller -run '^$' -fuzz FuzzSelectHostParity -fuzztime 10s -fuzzminimizetime 100x

# Every reader of the landscape walks the deployment's snapshots: any
# start, stop or move sequence must leave them equal to the instance map
# filtered and sorted afresh, and a snapshot handed out earlier intact.
echo "== fuzz: deployment instance snapshots vs the filtered instance map, 10 s"
go test ./internal/service -run '^$' -fuzz FuzzDeploymentSnapshots -fuzztime 10s

# The archive's and the store's benchmarks set up the tail, the raw
# blocks of a memory store and a reopen: the smoke runs their setup too.
echo "== benchmark smoke: root package, archive and tsdb benchmarks, one iteration"
go test -run '^$' -bench . -benchtime=1x -benchmem . ./internal/archive ./internal/tsdb

echo "check.sh: all gates passed"
