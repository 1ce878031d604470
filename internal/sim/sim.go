// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and a priority queue of scheduled
// events. Events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-breaking by sequence number), which makes every run
// bit-for-bit reproducible given the same seed. All EONA experiments run on
// top of this engine so that results in EXPERIMENTS.md can be regenerated
// exactly.
//
// The queue holds value slots ordered by (time, sequence number). One-shot
// events sit in a binary min-heap; tickers (Every) sit in per-period FIFO
// lanes, each already sorted because every push onto a lane is at
// now+period with the next sequence number. An event cannot be cancelled
// once scheduled; a ticker re-arms its one slot after each firing and is
// stopped through the func Every returns, so periodic work allocates
// nothing per tick.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// slot is one queued firing, held by value in the engine's heap or in a
// lane. A one-shot event carries fn; a ticker's firing carries t and no fn.
// Slots fire in (at, seq) order, and seq is unique, so the order is total.
type slot struct {
	at  Time
	seq uint64
	fn  func(*Engine)
	t   *ticker
}

// dead reports whether the slot belongs to a stopped ticker. A dead slot is
// dropped where it surfaces at the head of the queue: it does not fire,
// does not count in Processed and does not define an instant.
func (s *slot) dead() bool { return s.t != nil && s.t.stopped }

// before orders slots by time, then by schedule order.
func (s *slot) before(o *slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// ticker is Every's state. It has at most one slot queued at a time and
// re-pushes that slot after each firing, so a tick allocates nothing.
type ticker struct {
	period  time.Duration
	fn      func(*Engine) bool
	stopped bool
}

// lane is the FIFO of every ticker slot with one period. Each push is at
// now+period with the next seq, and the clock never goes back, so the FIFO
// is sorted on (at, seq) without any sifting. Slots are consumed through
// head and the backing array is reused in place.
type lane struct {
	period time.Duration
	slots  []slot
	head   int
}

// push appends s. A full backing array whose consumed prefix is at least
// half of it is compacted in place instead of grown, so a lane in steady
// state allocates nothing.
func (l *lane) push(s slot) {
	if n := len(l.slots); n == cap(l.slots) && l.head > 0 && 2*l.head >= n {
		live := copy(l.slots, l.slots[l.head:])
		clear(l.slots[live:])
		l.slots, l.head = l.slots[:live], 0
	}
	l.slots = append(l.slots, s)
}

// take removes and returns the head slot, zeroing its place so the backing
// array keeps no ticker alive.
func (l *lane) take() slot {
	s := l.slots[l.head]
	l.slots[l.head] = slot{}
	l.head++
	return s
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all model code runs inside event callbacks on the calling
// goroutine.
type Engine struct {
	now     Time
	queue   []slot // one-shot events: binary min-heap on (at, seq)
	lanes   []lane // ticker slots, one FIFO per period
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

// ErrPastEvent is the error ScheduleAt panics with when the requested time
// is before the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// ScheduleAt schedules fn to run at absolute virtual time at. It panics if
// at is before Now; simulations that need "as soon as possible" semantics
// should pass Now().
func (e *Engine) ScheduleAt(at Time, fn func(*Engine)) {
	e.enqueue(at, fn, nil)
}

// Schedule schedules fn to run after delay d (relative to Now).
func (e *Engine) Schedule(d time.Duration, fn func(*Engine)) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now+d, fn)
}

// enqueue queues a slot at time at numbered with the next seq: a ticker's
// on the lane of its period, a one-shot on the heap. A time before Now
// (including an overflowed now+d) panics, so the queue never holds a
// firing in the past.
func (e *Engine) enqueue(at Time, fn func(*Engine), t *ticker) {
	if at < e.now {
		panic(fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now))
	}
	s := slot{at: at, seq: e.seq, fn: fn, t: t}
	e.seq++
	if t != nil {
		e.laneFor(t.period).push(s)
		return
	}
	e.push(s)
}

// laneFor returns the lane of the given period, opening it on first use.
func (e *Engine) laneFor(period time.Duration) *lane {
	for i := range e.lanes {
		if e.lanes[i].period == period {
			return &e.lanes[i]
		}
	}
	e.lanes = append(e.lanes, lane{period: period})
	return &e.lanes[len(e.lanes)-1]
}

// front returns the least queued slot, dead or alive, and where it sits:
// src is its lane index, or -1 for the heap head. s is nil when nothing is
// queued. The pointer is valid until the queue next changes. front stays
// within the compiler's inlining budget: the run loops call it per event.
func (e *Engine) front() (s *slot, src int) {
	src = -1
	if len(e.queue) > 0 {
		s = &e.queue[0]
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.head < len(l.slots) {
			// h.before(s), spelled out to stay within the budget.
			if h := &l.slots[l.head]; s == nil || h.at < s.at || h.at == s.at && h.seq < s.seq {
				s, src = h, i
			}
		}
	}
	return s, src
}

// take removes and returns the slot front reported at src.
func (e *Engine) take(src int) slot {
	if src < 0 {
		return e.pop()
	}
	return e.lanes[src].take()
}

// push adds s to the heap, sifting it up from the end.
func (e *Engine) push(s slot) {
	e.queue = append(e.queue, s)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
}

// pop removes and returns the head of the heap, sifting the last slot down
// from the root. The vacated tail slot is zeroed so the backing array keeps
// no callback alive.
func (e *Engine) pop() slot {
	q := e.queue
	head := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	q = q[:n]
	e.queue = q
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	return head
}

// fire runs a popped live slot at the current time.
func (e *Engine) fire(s *slot) {
	e.Processed++
	if s.t == nil {
		s.fn(e)
		return
	}
	t := s.t
	if !t.fn(e) {
		t.stopped = true
		return
	}
	if !t.stopped { // fn may have called stop
		e.enqueue(e.now+t.period, nil, t)
	}
}

// Every schedules fn to run every period, starting after the first period
// elapses. If fn returns false the ticker stops itself. The returned stop
// function stops the ticker: its already-queued next tick is dropped
// unfired where it surfaces, so it neither inflates Processed nor drags the
// idle-run clock. Calling stop is idempotent; calling it from inside fn
// suppresses the next tick.
//
// A ticker is one queued slot that re-arms after each firing, numbered with
// the next seq exactly as Schedule would number it, on the lane of its
// period, so a tick allocates nothing.
func (e *Engine) Every(period time.Duration, fn func(*Engine) bool) (stop func()) {
	if period <= 0 {
		panic("sim: Every requires a positive period")
	}
	t := &ticker{period: period, fn: fn}
	e.enqueue(e.now+period, nil, t)
	return func() { t.stopped = true }
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
		s, src := e.front()
		if len(e.tickEnd) > 0 && (s == nil || s.at > e.now) {
			e.flushTickEnd()
			continue
		}
		if s == nil || s.at > horizon {
			break
		}
		next := e.take(src)
		if next.dead() {
			continue
		}
		e.now = next.at
		e.fire(&next)
	}
	if advance && e.now < horizon {
		e.now = horizon
	}
	return e.now
}

// peek returns the time of the next live event, discarding dead slots from
// the head of the queue on the way. ok is false when no live event remains
// queued.
func (e *Engine) peek() (at Time, ok bool) {
	for {
		s, src := e.front()
		if s == nil {
			return 0, false
		}
		if !s.dead() {
			return s.at, true
		}
		e.take(src)
	}
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
		if s, src := e.front(); s != nil && s.at == t {
			next := e.take(src)
			if !next.dead() {
				e.fire(&next)
			}
			continue
		}
		if len(e.tickEnd) > 0 {
			e.flushTickEnd()
			continue
		}
		break
	}
}
