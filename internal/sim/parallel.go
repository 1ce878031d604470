package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelEngine is a multi-driver discrete-event engine: P partition
// engines advance in lockstep over virtual instants, and within one instant
// the partitions' events run concurrently on up to W worker goroutines.
//
// The determinism contract has three parts:
//
//  1. Partitioning rule — every mutable piece of scenario state is owned by
//     exactly one partition, and only that partition's callbacks touch it.
//     Event sources that share nothing (per-region session arrivals, a
//     region's monitor fleet, a fault schedule) each live in their own
//     partition. Within a partition, events fire in (time, schedule order),
//     exactly like a serial Engine — each partition IS an Engine.
//
//  2. Per-instant barrier — when every partition has drained instant t
//     (including its end-of-tick hooks), the engine runs the registered
//     OnInstantEnd hooks on the coordinating goroutine, alone. This is
//     where cross-partition effects commit: hooks typically call a
//     deterministic-mode netsim.SharedNetwork's Commit, which applies the
//     instant's buffered ops in canonical (driver, seq) order and publishes
//     at most one snapshot for the instant; none when the instant buffered
//     no op. Hooks may schedule events into any partition; partition
//     callbacks must only schedule into their own.
//
//  3. Worker-count independence — the worker count W (and goroutine
//     scheduling generally) affects wall-clock only, never results: cross-
//     partition interaction happens only through the barrier, and the
//     barrier's op order is (driver, seq), which no interleaving perturbs.
//     W=1 runs the partitions of each instant sequentially in partition
//     order on the calling goroutine — the serial reference the
//     differential tests pin bit-identical against W=N.
//
// A ParallelEngine with one partition behaves exactly like that partition's
// serial Engine (same seed, same event order, same tick-end semantics), so
// existing single-threaded scenarios can run on it unchanged.
type ParallelEngine struct {
	parts   []*Engine
	workers int
	now     Time

	// active lists the partitions with work at the current instant. It
	// is reused across instants so a lockstep step allocates nothing.
	active []int

	// instantEnd hooks run after every fully-drained instant, in
	// registration order, exclusively on the coordinating goroutine.
	instantEnd []func(*ParallelEngine)
}

// NewParallel returns an engine with the given number of partitions, run by
// up to workers goroutines per instant. Partition p's random source is
// seeded seed+p, so partition 0 of NewParallel(seed, 1, 1) reproduces
// NewEngine(seed) exactly. workers <= 0 means GOMAXPROCS; the worker count
// never affects results, only wall-clock.
func NewParallel(seed int64, partitions, workers int) *ParallelEngine {
	if partitions <= 0 {
		panic(fmt.Sprintf("sim: NewParallel requires at least one partition, got %d", partitions))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pe := &ParallelEngine{workers: workers}
	for p := 0; p < partitions; p++ {
		pe.parts = append(pe.parts, NewEngine(seed+int64(p)))
	}
	return pe
}

// Partition returns partition p's engine. Schedule a source's events on its
// own partition; the returned *Engine is only safe to use from that
// partition's callbacks (or between Run calls / inside barrier hooks).
func (pe *ParallelEngine) Partition(p int) *Engine { return pe.parts[p] }

// Now returns the engine's virtual clock: the last drained instant (or the
// horizon after a bounded Run that outlived its events).
func (pe *ParallelEngine) Now() Time { return pe.now }

// OnInstantEnd registers fn to run after every drained instant, on the
// coordinating goroutine with no partition running. Unlike Engine.OnTickEnd
// the hook is persistent. This is the commit barrier: wire a deterministic
// SharedNetwork's Commit here so every instant's buffered ops apply in
// (driver, seq) order and at most one snapshot publishes per instant; none
// when the instant buffered no op.
func (pe *ParallelEngine) OnInstantEnd(fn func(*ParallelEngine)) {
	pe.instantEnd = append(pe.instantEnd, fn)
}

// Processed totals events fired across all partitions.
func (pe *ParallelEngine) Processed() uint64 {
	var n uint64
	for _, p := range pe.parts {
		n += p.Processed
	}
	return n
}

// Run processes instants until no partition has events left or the clock
// would pass horizon (an instant at exactly horizon still runs, barrier
// included). It returns the virtual time at which
// processing stopped.
func (pe *ParallelEngine) Run(horizon Time) Time {
	return pe.run(horizon, true)
}

// RunUntilIdle processes instants until none remain, leaving the clock at
// the last drained instant.
func (pe *ParallelEngine) RunUntilIdle() Time {
	return pe.run(Time(1<<63-1), false)
}

func (pe *ParallelEngine) run(horizon Time, advance bool) Time {
	for {
		t, ok := pe.nextInstant()
		if !ok || t > horizon {
			break
		}
		pe.runOneInstant(t)
		pe.now = t
		for _, fn := range pe.instantEnd {
			fn(pe)
		}
	}
	if advance && pe.now < horizon {
		pe.setNow(horizon)
	}
	return pe.now
}

// nextInstant finds the earliest live event time across partitions. A
// partition holding un-flushed tick-end callbacks (possible only if a
// barrier hook registered one) keeps the current instant alive.
func (pe *ParallelEngine) nextInstant() (Time, bool) {
	var t Time
	found := false
	for _, p := range pe.parts {
		if len(p.tickEnd) > 0 && (!found || pe.now < t) {
			t, found = pe.now, true
		}
		if at, ok := p.peek(); ok && (!found || at < t) {
			t, found = at, true
		}
	}
	return t, found
}

// runOneInstant drains instant t in every partition. Idle partitions just
// have their clocks advanced; active ones run concurrently on up to
// pe.workers goroutines (sequentially, in partition order, when one worker
// suffices — the serial reference path).
func (pe *ParallelEngine) runOneInstant(t Time) {
	pe.active = pe.active[:0]
	for i, p := range pe.parts {
		if p.hasWorkAt(t) {
			pe.active = append(pe.active, i)
		} else if p.now < t {
			p.now = t
		}
	}
	w := pe.workers
	if w > len(pe.active) {
		w = len(pe.active)
	}
	if w <= 1 {
		for _, i := range pe.active {
			pe.parts[i].runInstant(t)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(pe.active) {
					return
				}
				pe.parts[pe.active[j]].runInstant(t)
			}
		}()
	}
	wg.Wait()
}

// setNow advances the engine and every partition clock to t (used for the
// end-of-Run jump to the horizon, mirroring Engine.Run).
func (pe *ParallelEngine) setNow(t Time) {
	pe.now = t
	for _, p := range pe.parts {
		if p.now < t {
			p.now = t
		}
	}
}
