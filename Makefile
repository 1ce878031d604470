GO ?= go

.PHONY: check build vet test race bench benchcheck chaos recover timetravel dashboard fmt

# Tier-1 gate: everything a PR must pass before merging.
check: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Can the frozen served-path benchmark still build and run here? One short
# net-churn run untraced, one traced, and one short sim-arms run (its
# reproduce check catches a non-deterministic allocator); all must report
# "correct":true.
benchcheck:
	scripts/benchcheck.sh

# Chaos suite: the deterministic fault-injection tests (E15 + faults pkg).
chaos:
	$(GO) test -race -count=1 -run 'E15|Chaos|Fault|Breaker' ./internal/expt ./internal/faults ./internal/lookingglass

# Kill-and-catch-up demo: boot eona-lg with a journal, kill -9 it, restart,
# and verify the A2I summaries are identical across the crash.
recover:
	scripts/recover_demo.sh

# Time-travel demo: journal an eona-lg run, query /v1/history/summaries at
# three offsets, kill -9, restart, and verify the answers are byte-identical.
timetravel:
	scripts/timetravel_demo.sh

# Control-plane smoke: boot eona-lg journaled, inject an impairment over
# /v1, stream a few SSE samples, kill -9, restart, and verify the fault
# replayed (eona-trace lists it; history answers are byte-identical).
# SERVE=1 leaves the server running with the dashboard URL printed.
dashboard:
	scripts/ctlplane_smoke.sh

fmt:
	gofmt -l -w .
