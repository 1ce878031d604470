//go:build !race

package sim

import (
	"testing"
	"time"
)

// A tick allocates nothing: a ticker re-arms its own queued slot on a lane
// that compacts in place, and a lockstep instant reuses its active-partition
// list. The race detector's instrumentation allocates, so the pins build
// without it.
func TestEngineTickAllocatesNothing(t *testing.T) {
	tick := func(*Engine) bool { return true }
	t.Run("engine-150-tickers", func(t *testing.T) {
		// E1's queue peaks at about 155 slots.
		e := NewEngine(1)
		for i := 0; i < 150; i++ {
			e.Every(time.Second, tick)
		}
		e.Run(e.Now() + time.Second) // grow the heap to its steady size
		allocs := testing.AllocsPerRun(100, func() { e.Run(e.Now() + time.Second) })
		if allocs != 0 {
			t.Errorf("one period of 150 tickers: %v allocs, want 0", allocs)
		}
		// The warm-up period, AllocsPerRun's own warm-up run and its 100.
		if want := uint64(102 * 150); e.Processed != want {
			t.Errorf("Processed = %d, want %d", e.Processed, want)
		}
	})
	t.Run("three-periods-and-one-shots", func(t *testing.T) {
		// Three lanes and the heap: every tick of the 2 s tickers also
		// schedules a one-shot between instants. No lane ever drains, so
		// a lane that did not compact in place would keep growing.
		e := NewEngine(1)
		oneShot := func(*Engine) {}
		for i := 0; i < 40; i++ {
			e.Every(time.Second, tick)
			e.Every(2*time.Second, func(en *Engine) bool {
				en.Schedule(500*time.Millisecond, oneShot)
				return true
			})
			e.Every(3*time.Second, tick)
		}
		const lcm = 6 * time.Second
		e.Run(e.Now() + 4*lcm) // grow the lanes and the heap to their steady size
		before := e.Processed
		// One measured run of 100 rounds, not 100 runs of one: AllocsPerRun
		// divides by its run count, which would hide a lane that grows by
		// doubling now and then.
		allocs := testing.AllocsPerRun(1, func() { e.Run(e.Now() + 100*lcm) })
		if allocs != 0 {
			t.Errorf("100 rounds of %v over three periods: %v allocs, want 0", lcm, allocs)
		}
		// Per 6 s: 40×6 + 40×3 ticks and their 120 one-shots, + 40×2 ticks;
		// AllocsPerRun's warm-up run and its measured one.
		if want := uint64(200 * 560); e.Processed-before != want {
			t.Errorf("Processed grew %d, want %d", e.Processed-before, want)
		}
	})
	t.Run("parallel-instant", func(t *testing.T) {
		pe := NewParallel(1, 8, 1)
		for p := 0; p < 8; p++ {
			pe.Partition(p).Every(time.Millisecond, tick)
		}
		pe.Run(pe.Now() + time.Millisecond)
		allocs := testing.AllocsPerRun(100, func() { pe.Run(pe.Now() + time.Millisecond) })
		if allocs != 0 {
			t.Errorf("one lockstep instant: %v allocs, want 0", allocs)
		}
	})
}
