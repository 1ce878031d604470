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
# The benchmark harness is a nested module (outside ./...) built against
# this tree: an API removal that breaks it must fail here, not in the
# benchmark run. It is one main package, so -o keeps the binary out of the
# checkout.
(cd bench && go build -o /dev/null ./... && go vet ./... && go test ./...)
# ...and must still run it: a short net-churn run, untraced and traced.
scripts/benchcheck.sh
# Fast-fail on the concurrency-heavy packages (collector, merge primitives,
# shared network + snapshots, looking-glass pollers, event journal, control
# plane + SSE streaming) and the allocator/control-loop packages (component
# registry, reaction coalescing) before the full sweep.
go test -race ./internal/core/... ./internal/agg/... ./internal/netsim/... \
	./internal/control/... ./internal/lookingglass/... ./internal/journal/... \
	./internal/projection/... ./internal/ctlplane/...
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
go test -race ./...
# Hot paths can't quietly regress: key benchmarks vs the latest recording.
scripts/bench_gate.sh
