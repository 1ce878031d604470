#!/bin/sh
# Can the frozen benchmark still run on this tree? Builds bench/ (run.sh does)
# and drives one short net-churn run untraced, then traced — the workload
# that crosses the allocator, the state digest, the journal, the projection
# fold and recovery — and one short untraced sim-arms run, whose end-of-run
# reproduce check (same seed, same E1Result and engine digest) is the
# cheapest detector of an allocator that stopped being deterministic. Each
# run must exit 0 and end in a result line carrying "correct":true. A tree
# that fails here would fail in the benchmark pipeline, after the PR is
# already up. Same as `make benchcheck`.
set -eu
cd "$(dirname "$0")/.."
for run in "net-churn 0" "net-churn 1" "sim-arms 0"; do
	set -- $run
	if ! out=$(bash bench/run.sh --workload "$1" --seconds 5 --trace "$2" 2>&1); then
		echo "$out" >&2
		echo "benchcheck: bench/run.sh --workload $1 --trace $2 failed" >&2
		exit 1
	fi
	case "$(echo "$out" | tail -1)" in
	*'"correct":true'*) echo "benchcheck: $1 --trace $2 ok" ;;
	*)
		echo "$out" >&2
		echo "benchcheck: $1 --trace $2 did not report \"correct\":true" >&2
		exit 1
		;;
	esac
done
