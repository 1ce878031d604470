// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes every run
// bit-for-bit reproducible given the same seed. All EONA experiments run on
// top of this engine so that results in EXPERIMENTS.md can be regenerated
// exactly.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Event is a scheduled callback. The callback receives the engine so that it
// can schedule further events.
type Event struct {
	at  Time
	seq uint64
	fn  func(*Engine)

	index     int // heap index; -1 when not queued
	cancelled bool
}

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the calling
// goroutine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	rng     *rand.Rand
	tickEnd []func(*Engine)

	// Processed counts events that have fired, for diagnostics and as a
	// runaway guard in tests.
	Processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
// Engines with equal seeds and equal schedules produce identical runs.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// ErrPastEvent is returned by ScheduleAt when the requested time is before
// the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ScheduleAt schedules fn to run at absolute virtual time at. It panics if
// at is before Now; simulations that need "as soon as possible" semantics
// should pass Now().
func (e *Engine) ScheduleAt(at Time, fn func(*Engine)) *Event {
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Schedule schedules fn to run after delay d (relative to Now).
func (e *Engine) Schedule(d time.Duration, fn func(*Engine)) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled || ev.index < 0 {
		if ev != nil {
			ev.cancelled = true
		}
		return
	}
	ev.cancelled = true
}

// Every schedules fn to run every period, starting after the first period
// elapses. The returned stop function cancels the ticker — including the
// already-queued next tick, so a stopped ticker leaves no dead event behind
// to fire, inflate Processed, or drag the idle-run clock. If fn returns false the
// ticker stops itself. Calling stop is idempotent; calling it from inside fn
// suppresses the reschedule.
func (e *Engine) Every(period time.Duration, fn func(*Engine) bool) (stop func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	stopped := false
	var pending *Event
	var tick func(*Engine)
	tick = func(en *Engine) {
		if stopped {
			return
		}
		pending = nil // this tick just fired
		if !fn(en) {
			stopped = true
			return
		}
		if !stopped { // fn may have called stop
			pending = en.Schedule(period, tick)
		}
	}
	pending = e.Schedule(period, tick)
	return func() {
		stopped = true
		if pending != nil {
			e.Cancel(pending)
			pending = nil
		}
	}
}

// OnTickEnd registers fn to run once every already-queued event at the
// current instant has fired — i.e. just before virtual time would next
// advance (or the run loop return). Callbacks run in registration order and
// may schedule events; events they add at the current instant fire before
// time advances and may trigger a further round of tick-end callbacks.
//
// The hook is one-shot: a callback that wants to run at the end of a later
// tick registers itself again. control.Coalescer uses it to fold all
// monitor reactions of one simulated instant into a single allocator batch.
func (e *Engine) OnTickEnd(fn func(*Engine)) {
	e.tickEnd = append(e.tickEnd, fn)
}

// flushTickEnd runs and clears the registered tick-end callbacks. Callbacks
// registered while flushing land in the next flush (same instant if the
// clock has not advanced by then).
func (e *Engine) flushTickEnd() {
	fns := e.tickEnd
	e.tickEnd = nil
	for _, fn := range fns {
		fn(e)
	}
}

// Run processes events until the queue is empty or the clock would pass
// horizon (events at exactly horizon still fire). It returns the virtual
// time at which processing stopped.
func (e *Engine) Run(horizon Time) Time {
	return e.run(horizon, true)
}

// RunUntilIdle processes events until none remain. Unlike
// Run, draining the queue leaves the clock at the last processed event —
// not at the sentinel horizon — so later Schedule calls keep working
// instead of overflowing into an ErrPastEvent panic.
func (e *Engine) RunUntilIdle() Time {
	return e.run(Time(1<<63-1), false)
}

// run is the shared loop. advance controls whether a drained queue jumps
// the clock forward to horizon (Run's contract) or leaves it at the last
// processed event (RunUntilIdle's).
func (e *Engine) run(horizon Time, advance bool) Time {
	for {
		// Tick boundary: no queued event remains at the current
		// instant, so flush end-of-tick callbacks before the clock can
		// advance (or the loop exit).
		if len(e.tickEnd) > 0 && (len(e.queue) == 0 || e.queue[0].at > e.now) {
			e.flushTickEnd()
			continue
		}
		if len(e.queue) == 0 {
			break
		}
		next := e.queue[0]
		if next.at > horizon {
			break
		}
		heap.Pop(&e.queue)
		if next.cancelled {
			continue
		}
		e.now = next.at
		e.Processed++
		next.fn(e)
	}
	if advance && e.now < horizon {
		e.now = horizon
	}
	return e.now
}

// peek returns the time of the next live event, discarding cancelled events
// from the head of the queue on the way. ok is false when no live event
// remains queued.
func (e *Engine) peek() (at Time, ok bool) {
	for len(e.queue) > 0 && e.queue[0].cancelled {
		heap.Pop(&e.queue)
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// hasWorkAt reports whether the engine has a queued event at exactly t, or
// pending end-of-tick callbacks. Precondition of the parallel run loop: no
// live event is queued before t.
func (e *Engine) hasWorkAt(t Time) bool {
	if len(e.tickEnd) > 0 {
		return true
	}
	at, ok := e.peek()
	return ok && at == t
}

// runInstant advances the clock to t and fires every queued event scheduled
// at exactly t — including events callbacks add at t while it runs — then
// flushes end-of-tick hooks, looping until the instant is fully drained.
// Later events stay queued. It is the per-partition step of a
// ParallelEngine's lockstep loop; callers must guarantee no live event is
// queued before t.
func (e *Engine) runInstant(t Time) {
	e.now = t
	for {
		if len(e.queue) > 0 && e.queue[0].at == t {
			next := heap.Pop(&e.queue).(*Event)
			if next.cancelled {
				continue
			}
			e.Processed++
			next.fn(e)
			continue
		}
		if len(e.tickEnd) > 0 {
			e.flushTickEnd()
			continue
		}
		break
	}
}
