package lookingglass

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed: exchanges flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures tripped the breaker; exchanges
	// are skipped until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and one probe exchange is in
	// flight; its outcome closes or re-opens the breaker.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breakerThreshold is the consecutive-failure count that opens a Breaker.
const breakerThreshold = 5

// BreakerCounters are cumulative breaker statistics, exported so a live
// poller's health is observable (cmd/eona-lg /v1/health).
type BreakerCounters struct {
	// Allowed counts exchanges the breaker admitted (probes included).
	Allowed uint64
	// Skipped counts exchanges suppressed while open or while a probe
	// was in flight.
	Skipped uint64
	// Opens counts closed/half-open → open transitions.
	Opens uint64
	// Probes counts half-open probe admissions.
	Probes uint64
	// Successes and Failures count reported exchange outcomes.
	Successes, Failures uint64
}

// Breaker is a consecutive-failure circuit breaker
// (closed → open → half-open probe → closed). It is safe for concurrent
// use. Callers ask Allow before each exchange and report the outcome with
// OnSuccess/OnFailure, passing the time of each event.
type Breaker struct {
	mu       sync.Mutex
	cooldown time.Duration
	state    BreakerState
	consec   int
	openedAt time.Time
	c        BreakerCounters
}

// newBreaker builds a closed breaker that opens after breakerThreshold
// consecutive failures and stays open for cooldown.
func newBreaker(cooldown time.Duration) *Breaker {
	return &Breaker{cooldown: cooldown}
}

// Allow reports whether an exchange may proceed at now. While open it
// returns false until the cooldown elapses, then admits exactly one
// half-open probe; further exchanges are skipped until the probe's outcome
// is reported.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.c.Skipped++
			return false
		}
		b.state = BreakerHalfOpen
		b.c.Probes++
		b.c.Allowed++
		return true
	case BreakerHalfOpen:
		b.c.Skipped++
		return false
	default:
		b.c.Allowed++
		return true
	}
}

// OnSuccess reports a successful exchange: the failure streak resets and
// the breaker closes (a successful half-open probe closes it).
func (b *Breaker) OnSuccess(time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.c.Successes++
	b.consec = 0
	b.state = BreakerClosed
}

// OnFailure reports a failed exchange. A failed half-open probe re-opens
// immediately; in the closed state the breaker opens once the consecutive
// failure streak reaches the threshold.
func (b *Breaker) OnFailure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.c.Failures++
	b.consec++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.consec >= breakerThreshold) {
		b.state = BreakerOpen
		b.openedAt = now
		b.c.Opens++
	}
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Counters returns a snapshot of the cumulative statistics.
func (b *Breaker) Counters() BreakerCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.c
}
