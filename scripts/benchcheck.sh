#!/bin/sh
# Can the frozen benchmark still run on this tree? Builds bench/ (run.sh does)
# and drives one short net-churn run untraced, then traced — the workload
# that crosses the allocator, the state digest, the journal, the projection
# fold and recovery. Each run must exit 0 and end in a result line carrying
# "correct":true. A tree that fails here would fail in the benchmark
# pipeline, after the PR is already up. Same as `make benchcheck`.
set -eu
cd "$(dirname "$0")/.."
for trace in 0 1; do
	if ! out=$(bash bench/run.sh --workload net-churn --seconds 5 --trace "$trace" 2>&1); then
		echo "$out" >&2
		echo "benchcheck: bench/run.sh --workload net-churn --trace $trace failed" >&2
		exit 1
	fi
	case "$(echo "$out" | tail -1)" in
	*'"correct":true'*) echo "benchcheck: net-churn --trace $trace ok" ;;
	*)
		echo "$out" >&2
		echo "benchcheck: net-churn --trace $trace did not report \"correct\":true" >&2
		exit 1
		;;
	esac
done
