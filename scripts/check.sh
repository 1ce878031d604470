#!/bin/sh
# Tier-1 gate (same as `make check`): gofmt, build, vet, race-enabled tests.
set -eu
cd "$(dirname "$0")/.."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi
go build ./...
go vet ./...
# A dead exported name or struct field, or a test name the docs or this
# script cite that no test file declares, fails here in seconds, not after
# the race sweep.
go test -run '^TestInternal(Exports|Fields)Have|^TestDocsAndScriptsNameExistingTests$' .
# go build compiles the examples but nothing else runs them, and a facade or
# config change can break one at run time: each must exit 0.
for ex in examples/*/; do
	go run "./$ex" >/dev/null || { echo "check: $ex exited non-zero" >&2; exit 1; }
done
# The benchmark harness is a nested module (outside ./...) built against
# this tree: an API removal that breaks it must fail here, not in the
# benchmark run. It is one main package, so -o keeps the binary out of the
# checkout.
(cd bench && go build -o /dev/null ./... && go vet ./... && go test ./...)
# ...and must still run it: a short net-churn run, untraced and traced.
scripts/benchcheck.sh
# Fast-fail on the concurrency-heavy packages (collector and its sketches,
# shared network + snapshots, looking-glass pollers, event journal, control
# plane + SSE streaming) and the allocator/control-loop packages (component
# registry, reaction coalescing) before the full sweep.
go test -race ./internal/core/... ./internal/agg/... ./internal/netsim/... \
	./internal/control/... ./internal/lookingglass/... ./internal/journal/... \
	./internal/projection/... ./internal/ctlplane/...
# The looking glass's reply memo under concurrency, 50 times over: two
# partners polling a source that cycles through three overlapping values, so
# misses build from a slot's body while other requests replace it.
go test -race -run '^TestReplyMemoConcurrentFlips$' -count 50 ./internal/lookingglass/
# The partner gate under impairment churn, 20 times over: four goroutines
# call the gate while POST and DELETE cycle an outage, a latency spike and a
# link throttle, some left to their restore timers.
go test -race -run '^TestPartnerGateUnderImpairmentChurn$' -count 20 ./internal/ctlplane/
# Snapshot flow chunks hold flow handles and read ID and Tag through them:
# readers walk fresh snapshots while a writer churns and re-weights the
# same flows. Immediate-mode writers share one lock: four of them churn
# while readers spin (the export scratch runs on whichever holds it), and a
# sink that panics mid-apply must free the lock. All 20 times over.
go test -race -run '^TestSnapshotReadsUnderChurn$|^TestSharedImmediateHammer$|^TestSharedSinkPanicTearsNetwork$' -count 20 ./internal/netsim/
# The reused-scratch export's zero-allocation pin, 100 times over: it reads
# the process-wide malloc count, so it holds only while its loop runs with
# GOMAXPROCS pinned to 1, and a lapse shows up as an occasional failure.
go test -run '^TestDigestAndExportCost$' -count 100 ./internal/netsim/
# The crash-injection sweep: kill the journal at every record boundary (and
# seeded mid-record offsets) on every topology fixture; recovery must equal
# a from-scratch serial replay of the surviving prefix. The projection sweep
# does the same at every checkpoint/offset-commit boundary: resumed read
# models must equal a from-scratch fold of the surviving prefix.
go test -race -run 'TestCrashAtEveryRecordBoundary|TestOpenRepairsTornTail|TestTornMiddleSegmentDropsLater' \
	./internal/journal/
go test -race -run 'TestProjectionCrashSweep|TestResumeEqualsFromScratchFold|TestMaterializeAtDifferentialSweep' \
	./internal/projection/
# The multi-driver engine determinism pin: worker-pool lockstep runs vs the
# serial reference on every topology fixture, under the race detector.
go test -race -run 'TestEngineArmDifferentialOnFixtures|TestParallel' ./internal/expt/ ./internal/sim/
# The wire codec's differential fuzzes: 2000 generated inputs past the seed
# corpus, each decoded by the hand-written reader and by encoding/json, then
# each encoded by the hand-written appenders and by encoding/json; and the
# reply memo's poll sequences, each reply against a fresh encode; the
# journal's snapshot decoder, which recovery runs on every snapshot frame;
# and the event engine's scripted schedules, tickers and tick-end hooks,
# each run against a linear-scan sort model. The budget is an input count,
# not wall time, so every run does the same work.
go test -run '^$' -fuzz '^FuzzDecodeMatchesUnmarshal$' -fuzztime 2000x ./internal/wire
go test -run '^$' -fuzz '^FuzzEncodeMatchesMarshal$' -fuzztime 2000x ./internal/wire
go test -run '^$' -fuzz '^FuzzReplyMemoMatchesEncode$' -fuzztime 2000x ./internal/lookingglass
go test -run '^$' -fuzz '^FuzzDecodeSnap$' -fuzztime 2000x ./internal/journal
go test -run '^$' -fuzz '^FuzzEngineMatchesSortOracle$' -fuzztime 2000x ./internal/sim
go test -race ./...
# Hot paths can't quietly regress: key benchmarks vs the latest recording.
scripts/bench_gate.sh
