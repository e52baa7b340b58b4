#!/bin/sh
# scripts/check.sh — the tier-1 gate (see ROADMAP.md): formatting, vet,
# the metric-name lint, every test twice (under the race detector, then
# race-free — the *ZeroAlloc guards skip themselves under -race, so the
# second pass is the one in which they assert), ten seconds each of real
# fuzzing of the wire frame decoder, of the tsdb segment-record decoder
# and of the closed-form inference against its two references, and every
# root-package benchmark once as a crash smoke. A new test or guard needs no edit here.
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

echo "== go test -race ./..."
go test -race ./...

echo "== go test ./...   (race-free: the zero-alloc guards assert here)"
go test ./...

# Replaying the seed corpus (which the two passes above do) is not
# fuzzing: the decoder reads whatever an unauthenticated peer sends.
echo "== fuzz: the wire frame decoder, 10 s"
go test ./internal/wire -run '^$' -fuzz FuzzEnvelopeDecode -fuzztime 10s

# What replay decodes is whatever a crash, a full disk or bit rot left
# inside a frame whose checksum still holds.
echo "== fuzz: the tsdb record decoder (rows included), 10 s"
go test ./internal/tsdb -run '^$' -fuzz FuzzRecordDecode -fuzztime 10s

# Exact by an argument, and checked on rule bases nobody wrote.
echo "== fuzz: closed-form leftmost maximum vs sampled union vs interpreter, 10 s"
go test ./internal/fuzzy -run '^$' -fuzz FuzzInferDifferential -fuzztime 10s

echo "== benchmark smoke: every root-package benchmark, one iteration"
go test -run '^$' -bench . -benchtime=1x -benchmem .

echo "check.sh: all gates passed"
