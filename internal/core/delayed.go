package core

import "time"

// Delayed models the §5 staleness challenge: "the data exported by the EONA
// interfaces may have some inherent delay". A producer Sets values at
// publication time; a consumer Gets the newest value that is at least Delay
// old — exactly what a periodically-polled looking-glass server serves.
//
// Every EONA control loop in internal/control reads interface data through
// a Delayed so the E6 experiment can sweep staleness from zero to minutes.
type Delayed[T any] struct {
	// Delay is the propagation/refresh latency of the interface.
	Delay time.Duration

	entries []delayedEntry[T]
}

type delayedEntry[T any] struct {
	at time.Duration
	v  T
}

// NewDelayed creates a store with the given interface delay.
func NewDelayed[T any](delay time.Duration) *Delayed[T] {
	if delay < 0 {
		panic("core: negative interface delay")
	}
	return &Delayed[T]{Delay: delay}
}

// Set publishes a value at virtual time now. Times must be non-decreasing.
func (d *Delayed[T]) Set(now time.Duration, v T) {
	if n := len(d.entries); n > 0 && d.entries[n-1].at > now {
		panic("core: Delayed.Set times must be non-decreasing")
	}
	d.entries = append(d.entries, delayedEntry[T]{at: now, v: v})
	d.prune(now)
}

// Get returns the newest value visible at time now (published at or before
// now−Delay) and true, or the zero value and false if nothing is visible
// yet.
func (d *Delayed[T]) Get(now time.Duration) (T, bool) {
	cutoff := now - d.Delay
	for i := len(d.entries) - 1; i >= 0; i-- {
		if d.entries[i].at <= cutoff {
			return d.entries[i].v, true
		}
	}
	var zero T
	return zero, false
}

// prune drops entries that can never be returned again: everything older
// than the newest already-visible entry.
func (d *Delayed[T]) prune(now time.Duration) {
	cutoff := now - d.Delay
	newestVisible := -1
	for i := len(d.entries) - 1; i >= 0; i-- {
		if d.entries[i].at <= cutoff {
			newestVisible = i
			break
		}
	}
	if newestVisible > 0 {
		d.entries = append(d.entries[:0], d.entries[newestVisible:]...)
	}
}

// Len returns the number of retained entries (for tests).
func (d *Delayed[T]) Len() int { return len(d.entries) }
