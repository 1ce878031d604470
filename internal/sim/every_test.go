package sim

import (
	"errors"
	"testing"
	"time"
)

// Regression: a stopped ticker's already-queued tick once counted as
// pending, fired as a no-op (inflating Processed), and dragged the clock
// forward under RunUntilIdle. Its slot is dead now: still queued, never live.
func TestEveryStopCancelsPendingTick(t *testing.T) {
	e := NewEngine(1)
	stop := e.Every(10*time.Second, func(*Engine) bool { return true })
	stop()
	if got := pending(e); got != 0 {
		t.Fatalf("pending after stop = %d, want 0 (stopped tick still live)", got)
	}
	end := e.RunUntilIdle()
	if e.Processed != 0 {
		t.Errorf("Processed = %d, want 0 (stopped ticker fired)", e.Processed)
	}
	if end != 0 {
		t.Errorf("idle clock = %v, want 0 (dead tick advanced the clock)", end)
	}
}

// Regression: a ticker that stops itself by returning false must not leave
// a pending event either (the next tick is only scheduled after fn returns
// true, so the false path just has to not reschedule).
func TestEveryFalseReturnLeavesNoEvent(t *testing.T) {
	e := NewEngine(1)
	n := 0
	stop := e.Every(time.Second, func(*Engine) bool {
		n++
		return n < 3
	})
	e.RunUntilIdle()
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	if got := pending(e); got != 0 {
		t.Errorf("pending after self-stop = %d, want 0", got)
	}
	if e.Processed != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed)
	}
	stop() // late stop after self-stop is a harmless no-op
	if got := pending(e); got != 0 {
		t.Errorf("pending after late stop = %d, want 0", got)
	}
}

// TestEverySemantics tables the stop-path corner cases.
func TestEverySemantics(t *testing.T) {
	cases := []struct {
		name string
		run  func(e *Engine) (ticks int)
	}{
		{
			// stop() before the first tick ever fires: nothing runs.
			name: "stop-before-first-tick",
			run: func(e *Engine) int {
				n := 0
				stop := e.Every(time.Second, func(*Engine) bool { n++; return true })
				stop()
				e.RunUntilIdle()
				return n
			},
		},
		{
			// stop() from inside fn: the returned true must not
			// reschedule past the stop.
			name: "stop-inside-fn",
			run: func(e *Engine) int {
				n := 0
				var stop func()
				stop = e.Every(time.Second, func(*Engine) bool {
					n++
					if n == 2 {
						stop()
					}
					return true
				})
				e.RunUntilIdle()
				return n
			},
		},
		{
			// A fresh Every after stopping the first keeps its own
			// state: restart works and the old ticker stays dead.
			name: "restart-after-stop",
			run: func(e *Engine) int {
				n := 0
				stop := e.Every(time.Second, func(*Engine) bool { n += 100; return true })
				e.Schedule(1500*time.Millisecond, func(en *Engine) {
					stop()
					en.Every(time.Second, func(*Engine) bool {
						n++
						return n%100 < 3
					})
				})
				e.Run(10 * time.Second)
				return n
			},
		},
	}
	want := map[string]int{
		"stop-before-first-tick": 0,
		"stop-inside-fn":         2,
		"restart-after-stop":     103, // one old tick (at 1s), then 3 new ones
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(7)
			if got := tc.run(e); got != want[tc.name] {
				t.Errorf("ticks = %d, want %d", got, want[tc.name])
			}
			if got := pending(e); got != 0 && tc.name != "restart-after-stop" {
				t.Errorf("pending after run = %d, want 0", got)
			}
		})
	}
}

// Regression: Run used to set now = horizon unconditionally when the queue
// drained, so RunUntilIdle's 1<<63-1 sentinel left the clock at max-Time
// and any later Schedule overflowed into an ErrPastEvent panic.
func TestScheduleAfterRunUntilIdle(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5*time.Second, func(*Engine) {})
	end := e.RunUntilIdle()
	if end != 5*time.Second {
		t.Fatalf("idle clock = %v, want 5s (last processed event)", end)
	}
	fired := false
	e.Schedule(time.Second, func(*Engine) { fired = true }) // used to panic
	e.RunUntilIdle()
	if !fired {
		t.Error("post-idle event did not fire")
	}
	if got := e.Now(); got != 6*time.Second {
		t.Errorf("clock = %v, want 6s", got)
	}
}

// An empty engine stays at time zero after an idle run and remains usable.
func TestRunUntilIdleEmptyEngine(t *testing.T) {
	e := NewEngine(1)
	if end := e.RunUntilIdle(); end != 0 {
		t.Fatalf("idle clock on empty engine = %v, want 0", end)
	}
	fired := false
	e.Schedule(time.Second, func(*Engine) { fired = true })
	e.RunUntilIdle()
	if !fired {
		t.Error("event did not fire")
	}
}

// Bounded Run keeps its horizon-jump contract: the clock parks at the
// horizon even when the queue drains early, and scheduling afterwards is
// relative to the horizon.
func TestRunStillAdvancesToHorizon(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func(*Engine) {})
	if end := e.Run(30 * time.Second); end != 30*time.Second {
		t.Fatalf("Run returned %v, want 30s", end)
	}
	var at Time
	e.Schedule(time.Second, func(en *Engine) { at = en.Now() })
	e.RunUntilIdle()
	if at != 31*time.Second {
		t.Errorf("post-horizon event fired at %v, want 31s", at)
	}
}

// A ticker's re-arm keeps ScheduleAt's guard: a next tick whose time
// overflows panics with ErrPastEvent and leaves nothing queued in the past.
func TestEveryOverflowPanics(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Every(1<<62, func(*Engine) bool { n++; return true })
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, ErrPastEvent) {
				t.Errorf("recovered %v, want ErrPastEvent", err)
			}
		}()
		e.RunUntilIdle()
	}()
	if n != 1 {
		t.Errorf("ticks = %d, want 1", n)
	}
	for _, s := range queued(e) {
		if s.at < e.Now() {
			t.Errorf("queued slot at %v, before Now %v", s.at, e.Now())
		}
	}
}
