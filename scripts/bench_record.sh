#!/bin/sh
# Record the collector, allocator, journal, projection and looking-glass
# serve micro-benchmarks to a dated JSON file (BENCH_<yyyy-mm-dd>.json in the
# repo root), so perf regressions are diffable across commits.
# Recordings are append-only: when today's file exists, the new one is
# BENCH_<yyyy-mm-dd>T<HHMMSS>.json, and no file is ever overwritten.
# scripts/bench_gate.sh gates on the newest recording by name order, which
# still picks the suffixed file because "T" sorts after ".".
# Usage: scripts/bench_record.sh [benchtime]
set -euC # -C: the redirect below refuses to clobber an existing recording
cd "$(dirname "$0")/.."

benchtime="${1:-1s}"
out="BENCH_$(date +%F).json"
if [ -e "$out" ]; then
	out="BENCH_$(date +%FT%H%M%S).json"
fi

cpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
gomaxprocs="${GOMAXPROCS:-$cpus}"

go test -run '^$' -bench 'Collector|Realloc|Churn|RepathBatch|Coalesc|SharedRead|ParallelEngine|EngineArm|Journal|StateDigest|Projection|Projected|MaterializeAt|ServeSummaries' -benchmem \
	-benchtime "$benchtime" ./internal/core/... ./internal/netsim/... ./internal/control/... \
	./internal/sim/... ./internal/expt/... ./internal/journal/... ./internal/projection/... \
	./internal/lookingglass/... |
	awk -v date="$(date +%F)" -v goversion="$(go env GOVERSION)" \
		-v gomaxprocs="$gomaxprocs" -v cpus="$cpus" '
	BEGIN {
		printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"cpus\": %s,\n  \"benchmarks\": [", date, goversion, gomaxprocs, cpus
		n = 0
	}
	/^Benchmark/ {
		if (n++) printf ","
		printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", $1, $2
		m = 0
		for (i = 3; i + 1 <= NF; i += 2) {
			if (m++) printf ", "
			printf "\"%s\": %s", $(i + 1), $i
		}
		printf "}}"
	}
	END { printf "\n  ]\n}\n" }
	' >"$out"

echo "wrote $out"
