#!/bin/sh
# Bench regression gate: rerun key benchmarks (min of 3+ counts per metric)
# and compare against the latest recorded BENCH_<yyyy-mm-dd>.json. A second
# recording on one day is BENCH_<yyyy-mm-dd>T<HHMMSS>.json (bench_record.sh
# never overwrites); byte order sorts "T" after ".", so it counts as newer.
# Fails when any shared benchmark:
#   - regressed ns/op by more than 20%,
#   - allocates more allocs/op than recorded (zero-alloc steady states must
#     stay zero-alloc),
#   - regressed B/op beyond max(1.2x, +16 bytes) of the recorded value.
# The gate is total: with the default pattern it also fails when the
# recording holds a benchmark that the pattern does not match and that
# scripts/bench_exempt.txt does not list with a reason, so a recorded number
# is either defended or explicitly waived. (A pattern given on the command
# line narrows the gate on purpose and skips that check.)
# Skips cleanly when nothing has been recorded yet. go test suffixes
# benchmark names with -GOMAXPROCS (when it is not 1), so the fresh run is
# pinned to the recording's gomaxprocs: names line up on any machine, and a
# run that still shares no name with the recording is a failure (the
# pattern or the recording is stale), not a skip.
# Usage: scripts/bench_gate.sh [pattern]
set -eu
cd "$(dirname "$0")/.."

# Default to the stable hot-path benchmarks: single-threaded collector
# ingest, incremental reallocation, steady-state churn (demand churn in both
# component-size regimes, discovery, flow lifecycle, a flow replaced and
# published at two flow counts), snapshot reads
# under writes, the O(links) state digest at two flow counts, the journaled
# net-churn window, journal append, and the lockstep engine's serial instant
# loop, plus the projection hot paths: the incremental fold, checkpoint-
# seeded materialization and the live (allocation-free) projected query,
# and one looking-glass summaries reply (encode once into a pooled buffer).
# Everything else the recording holds is waived, one reason per name, in
# scripts/bench_exempt.txt (multi-worker variants are scheduler-bound,
# synced appends disk-bound, ...). (go test treats each unbracketed "|"
# alternative as its own slash-separated pattern, so the /workers-1 below
# filters only the ParallelEngineInstants sub-benchmarks.)
total=$(($# == 0))
exempt=scripts/bench_exempt.txt
pattern="${1:-^BenchmarkCollectorIngest\$|ParallelEngineInstants/workers-1|ReallocateIncremental|ChurnRails|ChurnSkewed|ChurnDiscovery|ChurnLifecycle|PublishChurn|SharedReadScaling|StateDigest|^BenchmarkJournaledWindow\$|^BenchmarkJournalAppend\$|^BenchmarkProjectionFold\$|^BenchmarkMaterializeAt\$|^BenchmarkProjectedQuery\$|^BenchmarkServeSummaries\$}"
latest=$(ls BENCH_*.json 2>/dev/null | LC_ALL=C sort | tail -1 || true)
if [ -z "$latest" ]; then
	echo "bench gate: no BENCH_*.json recorded; skipping"
	exit 0
fi
procs=$(sed -n 's/.*"gomaxprocs": *\([0-9][0-9]*\).*/\1/p' "$latest" | head -1)
if [ -z "$procs" ]; then
	echo "bench gate: $latest carries no gomaxprocs" >&2
	exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

gate_check() {
	awk -v latest="$1" -v exempt="$exempt" -v procs="$procs" -v total="$total" '
	# Pass 1: exempted names (GOMAXPROCS suffix stripped) need a reason.
	FILENAME == exempt {
		if ($0 !~ /^#/ && NF > 0) waived[$1] = NF > 1
		next
	}
	# Pass 2: recorded metrics by benchmark name (our JSON keeps one
	# benchmark per line).
	FILENAME == latest {
		if (match($0, /"name": "[^"]+"/)) {
			name = substr($0, RSTART + 9, RLENGTH - 10)
			if (match($0, /"ns\/op": [0-9.eE+-]+/))
				rec[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
			if (match($0, /"B\/op": [0-9.eE+-]+/))
				recb[name] = substr($0, RSTART + 8, RLENGTH - 8) + 0
			if (match($0, /"allocs\/op": [0-9.eE+-]+/))
				reca[name] = substr($0, RSTART + 13, RLENGTH - 13) + 0
		}
		next
	}
	# Pass 3: fresh runs — keep each name'\''s min per metric across counts.
	/^Benchmark/ {
		for (i = 3; i + 1 <= NF; i += 2) {
			v = $i + 0
			u = $(i + 1)
			if (u == "ns/op" && (!($1 in fresh) || v < fresh[$1])) fresh[$1] = v
			if (u == "B/op" && (!($1 in freshb) || v < freshb[$1])) freshb[$1] = v
			if (u == "allocs/op" && (!($1 in fresha) || v < fresha[$1])) fresha[$1] = v
		}
	}
	END {
		checked = failed = 0
		for (name in fresh) {
			if (!(name in rec) || rec[name] <= 0) continue
			checked++
			ratio = fresh[name] / rec[name]
			printf "bench gate: %-55s recorded %.0f ns/op, now %.0f ns/op (%.2fx)\n", name, rec[name], fresh[name], ratio
			if (ratio > 1.20) {
				failed++
				printf "bench gate: FAIL %s regressed more than 20%% (ns/op)\n", name
			}
			if ((name in reca) && (name in fresha) && fresha[name] > reca[name]) {
				failed++
				printf "bench gate: FAIL %s allocs/op rose: recorded %d, now %d\n", name, reca[name], fresha[name]
			}
			if ((name in recb) && (name in freshb)) {
				limit = recb[name] * 1.2
				if (limit < recb[name] + 16) limit = recb[name] + 16
				if (freshb[name] > limit) {
					failed++
					printf "bench gate: FAIL %s B/op rose: recorded %d, now %d (limit %.0f)\n", name, recb[name], freshb[name], limit
				}
			}
		}
		if (checked == 0) {
			print "bench gate: FAIL no benchmark run here shares a name with " latest
			exit 2
		}
		uncovered = 0
		for (name in rec) {
			if (!total || (name in fresh)) continue
			base = name
			if (procs != 1) sub("-" procs "$", "", base)
			if (!waived[base]) {
				uncovered++
				printf "bench gate: FAIL %s is recorded in %s but neither gated nor listed with a reason in %s\n", name, latest, exempt
			}
		}
		if (uncovered > 0) exit 2
		if (failed > 0) exit 1
		printf "bench gate: %d benchmark(s) within bounds of %s\n", checked, latest
	}
	' "$exempt" "$1" "$2"
}

# Timing noise only ever inflates ns/op (scheduler steal, a co-running
# process), so the gate keeps the min per metric and, on failure, retries
# with the fresh samples accumulating into the same pool — a transiently
# loaded machine converges to the true floor instead of failing the build.
# Alloc counts are load-insensitive, so those gates are as strict on the
# first attempt as the last.
attempts=3
for attempt in $(seq "$attempts"); do
	GOMAXPROCS="$procs" go test -run '^$' -bench "$pattern" -benchtime 0.3s -count 5 -benchmem \
		./internal/sim/... ./internal/core/... ./internal/netsim/... \
		./internal/journal/... ./internal/projection/... ./internal/lookingglass/... >>"$tmp"
	rc=0
	gate_check "$latest" "$tmp" || rc=$?
	case "$rc" in
	0) exit 0 ;;
	2) exit 1 ;; # no shared names, or an uncovered one: re-measuring cannot help
	esac
	if [ "$attempt" -lt "$attempts" ]; then
		echo "bench gate: over bounds on attempt $attempt/$attempts; re-measuring (min accumulates)"
	fi
done
exit 1
