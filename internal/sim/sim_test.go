package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func(*Engine) { got = append(got, 3) })
	e.Schedule(1*time.Second, func(*Engine) { got = append(got, 1) })
	e.Schedule(2*time.Second, func(*Engine) { got = append(got, 2) })
	e.RunUntilIdle()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func(*Engine) { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Schedule(5*time.Second, func(en *Engine) { at = en.Now() })
	end := e.Run(10 * time.Second)
	if at != 5*time.Second {
		t.Errorf("event fired at %v, want 5s", at)
	}
	if end != 10*time.Second {
		t.Errorf("Run returned %v, want horizon 10s", end)
	}
}

func TestHorizonExcludesLaterEvents(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10*time.Second, func(*Engine) { fired = true })
	e.Run(5 * time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	// Event at exactly the horizon fires.
	e2 := NewEngine(1)
	fired2 := false
	e2.Schedule(5*time.Second, func(*Engine) { fired2 = true })
	e2.Run(5 * time.Second)
	if !fired2 {
		t.Error("event at horizon did not fire")
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(time.Second, func(en *Engine) {
		times = append(times, en.Now())
		en.Schedule(time.Second, func(en2 *Engine) {
			times = append(times, en2.Now())
		})
	})
	e.RunUntilIdle()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v", times)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*time.Second, func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt in the past did not panic")
			}
		}()
		en.ScheduleAt(5*time.Second, func(*Engine) {})
	})
	e.RunUntilIdle()
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Every(time.Second, func(*Engine) bool {
		n++
		return n < 5
	})
	e.Run(100 * time.Second)
	if n != 5 {
		t.Errorf("ticker fired %d times, want 5", n)
	}
}

func TestEveryStopFunc(t *testing.T) {
	e := NewEngine(1)
	n := 0
	stop := e.Every(time.Second, func(*Engine) bool { n++; return true })
	e.Schedule(3500*time.Millisecond, func(*Engine) { stop() })
	e.Run(10 * time.Second)
	if n != 3 {
		t.Errorf("ticker fired %d times, want 3", n)
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) did not panic")
		}
	}()
	NewEngine(1).Every(0, func(*Engine) bool { return true })
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var vals []int64
		e.Every(time.Second, func(en *Engine) bool {
			vals = append(vals, en.Rand().Int63n(1000))
			return len(vals) < 20
		})
		e.RunUntilIdle()
		return vals
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-time.Second, func(*Engine) { fired = true })
	e.RunUntilIdle()
	if !fired {
		t.Error("negative-delay event did not fire")
	}
}

// queued returns every queued slot, dead or alive: the heap's and each
// lane's unconsumed ones.
func queued(e *Engine) []slot {
	out := append([]slot(nil), e.queue...)
	for _, l := range e.lanes {
		out = append(out, l.slots[l.head:]...)
	}
	return out
}

// pending returns the number of queued live slots: a stopped ticker's
// queued tick is dead and does not count.
func pending(e *Engine) int {
	n := 0
	for _, s := range queued(e) {
		if !s.dead() {
			n++
		}
	}
	return n
}

func TestLenCountsPending(t *testing.T) {
	e := NewEngine(1)
	stop := e.Every(time.Second, func(*Engine) bool { return true })
	e.Schedule(2*time.Second, func(*Engine) {})
	if got := pending(e); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	stop()
	if got := pending(e); got != 1 {
		t.Fatalf("pending after stop = %d, want 1", got)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock never runs backwards.
func TestQuickMonotoneClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []Time
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func(en *Engine) {
				seen = append(seen, en.Now())
			})
		}
		e.RunUntilIdle()
		if len(seen) != len(delays) {
			return false
		}
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
