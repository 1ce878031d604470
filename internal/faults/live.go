package faults

import (
	"context"
	"math"
	"sync"
	"time"
)

// Live is the interactive counterpart of a Plan's partner faults: a mutable,
// concurrency-safe set of outage and latency-spike windows that operators
// open and close at runtime (the control plane's partner-outage and
// latency-spike impairments). A Plan is sealed at generation time; Live
// windows are added while the system runs, but evaluate exactly like plan
// windows — against a clock on the same timeline — so a gated poller cannot
// tell the difference.
type Live struct {
	clock func() time.Duration

	mu      sync.Mutex
	nextID  int
	outages map[int]Window
	spikes  map[int]LatencySpike
}

// NewLive builds an empty live fault set on the given timeline clock
// (typically WallClock for a running process, or a simulator clock in
// tests).
func NewLive(clock func() time.Duration) *Live {
	return &Live{
		clock:   clock,
		nextID:  1,
		outages: make(map[int]Window),
		spikes:  make(map[int]LatencySpike),
	}
}

// Now reports the current position on the live set's timeline.
func (l *Live) Now() time.Duration { return l.clock() }

// openEnd marks a window with no scheduled end; it stays open until
// cancelled.
const openEnd = time.Duration(math.MaxInt64)

// window opens [now, now+d), clamped to openEnd when now+d would overflow.
func (l *Live) window(d time.Duration) Window {
	start := l.clock()
	end := openEnd
	if d > 0 && d <= openEnd-start {
		end = start + d
	}
	return Window{Start: start, End: end}
}

// AddOutage opens a partner-outage window starting now. d <= 0 means
// open-ended (until Cancel). Returns the window's ID and the window.
func (l *Live) AddOutage(d time.Duration) (int, Window) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	w := l.window(d)
	l.outages[id] = w
	return id, w
}

// AddLatencySpike opens a latency-spike window starting now, adding extra
// delay to every gated exchange inside it. d <= 0 means open-ended.
func (l *Live) AddLatencySpike(extra, d time.Duration) (int, Window) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.nextID
	l.nextID++
	w := l.window(d)
	l.spikes[id] = LatencySpike{Window: w, Extra: extra}
	return id, w
}

// Cancel closes a window now (expired windows are simply dropped). It
// reports whether the ID named a known window.
func (l *Live) Cancel(id int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.outages[id]; ok {
		delete(l.outages, id)
		return true
	}
	if _, ok := l.spikes[id]; ok {
		delete(l.spikes, id)
		return true
	}
	return false
}

// PartnerUp reports whether the partner exchange is up right now.
func (l *Live) PartnerUp() bool {
	now := l.clock()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, w := range l.outages {
		if w.Contains(now) {
			return false
		}
	}
	return true
}

// Delay reports the extra exchange latency injected right now (the sum of
// all live spike windows containing now, mirroring Plan.PartnerDelay).
func (l *Live) Delay() time.Duration {
	now := l.clock()
	l.mu.Lock()
	defer l.mu.Unlock()
	var d time.Duration
	for _, s := range l.spikes {
		if s.Contains(now) {
			d += s.Extra
		}
	}
	return d
}

// Gate wraps a looking-glass-style fetch function with the live fault set,
// like WrapFetch does for a sealed Plan: latency spikes delay the call
// (respecting ctx cancellation) and outage windows fail it with
// ErrPartnerDown. A nil Live gates nothing.
func Gate[T any](l *Live, fetch func(context.Context) (T, error)) func(context.Context) (T, error) {
	if l == nil {
		return fetch
	}
	return func(ctx context.Context) (T, error) {
		var zero T
		if err := injectDelay(ctx, l.Delay()); err != nil {
			return zero, err
		}
		if !l.PartnerUp() {
			return zero, ErrPartnerDown
		}
		return fetch(ctx)
	}
}
