//go:build !race

package sim

import (
	"testing"
	"time"
)

// A tick allocates nothing: a ticker re-arms its own queued slot, and a
// lockstep instant reuses its active-partition list. The race detector's
// instrumentation allocates, so the pins build without it.
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
