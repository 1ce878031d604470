package sim

import (
	"sync/atomic"
	"testing"
	"time"
)

// A one-partition ParallelEngine must reproduce a serial Engine exactly:
// same event order, same rng stream, same Processed count, same final
// clock.
func TestParallelOnePartitionMatchesSerial(t *testing.T) {
	type trace struct {
		order []int
		rands []int64
		end   Time
		procd uint64
	}
	scenario := func(e *Engine, run func(Time) Time) trace {
		var tr trace
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(time.Duration(5-i)*time.Second, func(en *Engine) {
				tr.order = append(tr.order, i)
				tr.rands = append(tr.rands, en.Rand().Int63n(1000))
			})
		}
		e.Every(2*time.Second, func(en *Engine) bool {
			tr.order = append(tr.order, 100)
			tr.rands = append(tr.rands, en.Rand().Int63n(1000))
			return en.Now() < 6*time.Second
		})
		tr.end = run(20 * time.Second)
		tr.procd = e.Processed
		return tr
	}
	se := NewEngine(42)
	serial := scenario(se, se.Run)
	pe := NewParallel(42, 1, 1)
	par := scenario(pe.Partition(0), pe.Run)

	if len(serial.order) != len(par.order) {
		t.Fatalf("event counts differ: %d vs %d", len(serial.order), len(par.order))
	}
	for i := range serial.order {
		if serial.order[i] != par.order[i] || serial.rands[i] != par.rands[i] {
			t.Fatalf("diverge at %d: (%d,%d) vs (%d,%d)",
				i, serial.order[i], serial.rands[i], par.order[i], par.rands[i])
		}
	}
	if serial.end != par.end || serial.procd != par.procd {
		t.Fatalf("end/processed differ: (%v,%d) vs (%v,%d)",
			serial.end, serial.procd, par.end, par.procd)
	}
}

// Worker count must not change results: a partitioned scenario run with 1
// worker (the serial reference) and with 4 workers produces identical
// per-partition event traces, Processed counts, instants and final clocks.
func TestParallelWorkerCountIndependence(t *testing.T) {
	run := func(workers int) ([][]Time, uint64, uint64, Time) {
		const parts = 6
		pe := NewParallel(9, parts, workers)
		traces := make([][]Time, parts)
		for p := 0; p < parts; p++ {
			p := p
			eng := pe.Partition(p)
			// Periodic work at a per-partition phase plus bursts
			// landing on shared instants.
			eng.Every(time.Duration(p+1)*time.Second, func(en *Engine) bool {
				traces[p] = append(traces[p], en.Now())
				if en.Now() == 6*time.Second {
					en.Schedule(0, func(en2 *Engine) {
						traces[p] = append(traces[p], en2.Now())
					})
				}
				return true
			})
		}
		var instants uint64
		pe.OnInstantEnd(func(*ParallelEngine) { instants++ })
		end := pe.Run(12 * time.Second)
		return traces, pe.Processed(), instants, end
	}
	t1, p1, i1, e1 := run(1)
	t4, p4, i4, e4 := run(4)
	if p1 != p4 || i1 != i4 || e1 != e4 {
		t.Fatalf("processed/instants/end differ: (%d,%d,%v) vs (%d,%d,%v)", p1, i1, e1, p4, i4, e4)
	}
	for p := range t1 {
		if len(t1[p]) != len(t4[p]) {
			t.Fatalf("partition %d trace lengths differ: %d vs %d", p, len(t1[p]), len(t4[p]))
		}
		for i := range t1[p] {
			if t1[p][i] != t4[p][i] {
				t.Fatalf("partition %d diverges at %d: %v vs %v", p, i, t1[p][i], t4[p][i])
			}
		}
	}
}

// The barrier runs once per drained instant, after every partition's events
// at that instant, and never concurrently with partition callbacks.
func TestParallelInstantBarrier(t *testing.T) {
	const parts = 4
	pe := NewParallel(1, parts, parts)
	var inInstant atomic.Int32
	var barrierAt []Time
	// Partition callbacks run concurrently, so each records its tick times
	// in its own slice; aggregation happens after the run.
	ticks := make([][]Time, parts)
	for p := 0; p < parts; p++ {
		p := p
		eng := pe.Partition(p)
		eng.Every(time.Second, func(en *Engine) bool {
			inInstant.Add(1)
			ticks[p] = append(ticks[p], en.Now())
			inInstant.Add(-1)
			return en.Now() < 3*time.Second
		})
	}
	pe.OnInstantEnd(func(pe *ParallelEngine) {
		if inInstant.Load() != 0 {
			t.Error("barrier ran while a partition callback was active")
		}
		barrierAt = append(barrierAt, pe.Now())
	})
	pe.RunUntilIdle()
	want := []Time{time.Second, 2 * time.Second, 3 * time.Second}
	if len(barrierAt) != len(want) {
		t.Fatalf("barrier ran at %v, want %v", barrierAt, want)
	}
	for i := range want {
		if barrierAt[i] != want[i] {
			t.Fatalf("barrier ran at %v, want %v", barrierAt, want)
		}
	}
	for p := 0; p < parts; p++ {
		if len(ticks[p]) != len(want) {
			t.Fatalf("partition %d ticked at %v, want %v", p, ticks[p], want)
		}
		for i := range want {
			if ticks[p][i] != want[i] {
				t.Errorf("partition %d ticked at %v, want %v", p, ticks[p], want)
			}
		}
	}
}

// Barrier hooks may schedule follow-up events into any partition, including
// at the current instant (which re-runs the instant before time advances).
func TestParallelBarrierSchedules(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	var got []Time
	pe.Partition(0).Schedule(time.Second, func(*Engine) {})
	first := true
	pe.OnInstantEnd(func(pe *ParallelEngine) {
		if first {
			first = false
			pe.Partition(1).ScheduleAt(pe.Now(), func(en *Engine) {
				got = append(got, en.Now())
			})
			pe.Partition(1).Schedule(time.Second, func(en *Engine) {
				got = append(got, en.Now())
			})
		}
	})
	pe.RunUntilIdle()
	if len(got) != 2 || got[0] != time.Second || got[1] != 2*time.Second {
		t.Fatalf("barrier-scheduled events fired at %v, want [1s 2s]", got)
	}
}

// RunUntilIdle leaves the lockstep clock at the last drained instant (the
// same regression contract as the serial engine), and scheduling afterwards
// works.
func TestParallelRunUntilIdleClock(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	pe.Partition(1).Schedule(3*time.Second, func(*Engine) {})
	if end := pe.RunUntilIdle(); end != 3*time.Second {
		t.Fatalf("idle clock = %v, want 3s", end)
	}
	fired := false
	pe.Partition(0).Schedule(time.Second, func(*Engine) { fired = true })
	pe.RunUntilIdle()
	if !fired {
		t.Error("post-idle event did not fire")
	}
	if pe.Now() != 4*time.Second {
		t.Errorf("clock = %v, want 4s", pe.Now())
	}
}

// Cancelled events neither define instants nor count as work: a partition
// whose only remaining event is a stopped ticker's queued tick is idle.
func TestParallelCancelledEventsIgnored(t *testing.T) {
	pe := NewParallel(1, 2, 2)
	stop := pe.Partition(0).Every(time.Second, func(*Engine) bool {
		t.Error("stopped ticker fired")
		return true
	})
	stop()
	pe.Partition(1).Schedule(2*time.Second, func(*Engine) {})
	barriers := 0
	pe.OnInstantEnd(func(*ParallelEngine) { barriers++ })
	end := pe.RunUntilIdle()
	if end != 2*time.Second {
		t.Errorf("idle clock = %v, want 2s", end)
	}
	if barriers != 1 {
		t.Errorf("barriers = %d, want 1 (cancelled event created an instant)", barriers)
	}
	if got := pe.Processed(); got != 1 {
		t.Errorf("Processed = %d, want 1", got)
	}
}

func TestParallelZeroPartitionsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewParallel(seed, 0, 1) did not panic")
		}
	}()
	NewParallel(1, 0, 1)
}

// BenchmarkParallelEngineInstants prices the lockstep machinery itself:
// P partitions ticking every instant, no payload. The workers=1 row is the
// serial-reference overhead; multi-worker rows add the dispatch cost (and,
// on multi-core hardware, recover it with real parallelism once callbacks
// do non-trivial work).
func BenchmarkParallelEngineInstants(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers-1", 4: "workers-4"}[workers], func(b *testing.B) {
			pe := NewParallel(1, 8, workers)
			for p := 0; p < 8; p++ {
				pe.Partition(p).Every(time.Millisecond, func(*Engine) bool { return true })
			}
			b.ResetTimer()
			horizon := time.Duration(b.N) * time.Millisecond
			pe.Run(horizon)
		})
	}
}
