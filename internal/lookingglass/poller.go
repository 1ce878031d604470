package lookingglass

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"time"
)

// DecayConfidence grades a datum of the given age: 1 at age 0, halving
// every halfLife, decaying toward (but never reaching) 0. A non-positive
// halfLife disables decay (confidence stays 1 at any age) — the legacy
// binary fresh/stale stance. This is the §5 staleness contract consumers
// build on: between successful exchanges confidence is strictly
// non-increasing, and only a fresh exchange restores it to 1.
func DecayConfidence(age, halfLife time.Duration) float64 {
	if halfLife <= 0 || age <= 0 {
		return 1
	}
	return math.Pow(0.5, float64(age)/float64(halfLife))
}

// Snapshot is the freshest value a Poller has fetched, safe for concurrent
// reads by a control loop while the poller refreshes it in the background.
// A Snapshot is the wall-clock counterpart of core.Delayed: control loops
// read whatever the last successful poll returned, however old it is —
// which is exactly the staleness the E6 experiment characterizes, and
// Confidence grades (E15).
type Snapshot[T any] struct {
	mu sync.RWMutex
	v  T
	at time.Time
	ok bool
	// attemptAt is when the most recent poll finished, successful or
	// not. While polls fail, at freezes (stale beats absent) but
	// attemptAt keeps advancing — the signal a control loop needs to
	// tell "the peer is failing" apart from "the interval is slow".
	attemptAt time.Time
	attempted bool
	err       error

	// halfLife parameterizes Confidence; zero (a snapshot no poller runs)
	// means no decay.
	halfLife time.Duration
	// Robustness counters, maintained by the polling loop; consecFails is
	// the failure streak its backoff grows with.
	successes, failures, retries uint64
	consecFails                  int
}

// Get returns the latest value, when it was fetched, and whether any fetch
// has succeeded yet.
func (s *Snapshot[T]) Get() (v T, fetchedAt time.Time, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.v, s.at, s.ok
}

// Err returns the error of the most recent poll (nil after a success).
func (s *Snapshot[T]) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.err
}

// Confidence grades the snapshot's trustworthiness at now: 0 before any
// successful fetch, 1 at the instant of a fetch, and exponentially
// decaying with age on the configured half-life (see DecayConfidence).
// Consumers hold last-known-good state with decaying trust instead of a
// binary fresh/stale cliff; control policies compare this against their
// confidence floor to decide when to fall back to baseline rules.
func (s *Snapshot[T]) Confidence(now time.Time) float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.ok {
		return 0
	}
	return DecayConfidence(now.Sub(s.at), s.halfLife)
}

// Seed warm-starts the snapshot with a value recovered from durable state
// (e.g. a journaled poll result): consumers see it — with its original
// fetch time, so Confidence decays from when it was actually fetched, not
// from process start — until the first live poll replaces it. Counters are
// untouched: a seed is not a poll. Only values older than the current one
// are ignored, so a late Seed cannot clobber a live fetch.
func (s *Snapshot[T]) Seed(v T, fetchedAt time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ok && !s.at.Before(fetchedAt) {
		return
	}
	s.v, s.at, s.ok = v, fetchedAt, true
}

// LastAttempt returns when the most recent poll finished — successful or
// failed — and false if no poll has completed yet. Together with Get, a
// control loop can distinguish a failing peer (LastAttempt fresh, fetchedAt
// stale) from a slow polling interval (both old).
func (s *Snapshot[T]) LastAttempt() (time.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.attemptAt, s.attempted
}

// Health is a point-in-time view of a poller's robustness counters — what
// an operator needs to tell a healthy poller from one backing off a failing
// partner. Its JSON form is the body of eona-lg's /v1/health.
type Health struct {
	// Confidence is the snapshot's decayed trust at the query instant.
	Confidence float64 `json:"confidence"`
	// Successes and Failures count attempt outcomes.
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	// Retries counts attempts made while already in a failure streak.
	Retries uint64 `json:"retries"`
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastSuccess and LastAttempt are nil until the respective event.
	LastSuccess *time.Time `json:"last_success,omitempty"`
	LastAttempt *time.Time `json:"last_attempt,omitempty"`
}

// Health reports the poller's robustness counters at now.
func (s *Snapshot[T]) Health(now time.Time) Health {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := Health{
		Successes:           s.successes,
		Failures:            s.failures,
		Retries:             s.retries,
		ConsecutiveFailures: s.consecFails,
	}
	if s.ok {
		at := s.at
		h.LastSuccess = &at
		h.Confidence = DecayConfidence(now.Sub(s.at), s.halfLife)
	}
	if s.attempted {
		at := s.attemptAt
		h.LastAttempt = &at
	}
	return h
}

func (s *Snapshot[T]) set(v T, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.v, s.at, s.ok, s.err = v, at, true, nil
	s.attemptAt, s.attempted = at, true
	s.successes++
	if s.consecFails > 0 {
		s.retries++
	}
	s.consecFails = 0
}

// fail records a failed attempt and returns the failure streak it extends.
func (s *Snapshot[T]) fail(err error, at time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.err = err
	s.attemptAt, s.attempted = at, true
	s.failures++
	if s.consecFails > 0 {
		s.retries++
	}
	s.consecFails++
	return s.consecFails
}

// MinAttemptTimeout floors the derived per-attempt timeout so that tests
// polling at millisecond intervals don't time out real loopback fetches.
const MinAttemptTimeout = 250 * time.Millisecond

// The poller's settings, each a fixed multiple of the poll interval (at a
// 10 s interval: retries back off from 10 s to 80 s, confidence halves
// every 100 s). Retry delays double per consecutive failure from one
// interval up to backoffMaxIntervals, each jittered by ±backoffJitter; the
// jitter RNG has a fixed seed, so every poller draws the same retry
// schedule.
const (
	backoffFactor       = 2
	backoffMaxIntervals = 8
	backoffJitter       = 0.1
	halfLifeIntervals   = 10
)

// PollWith fetches fetch() immediately and then every interval until ctx is
// cancelled, publishing results into the returned Snapshot. Each attempt
// runs under a per-attempt timeout of one interval (floored at
// MinAttemptTimeout), so a hung peer cannot wedge the loop past
// cancellation (the fetch must honor its context, as HTTP fetches do).
// Failures retry on jittered exponential backoff instead of the steady
// interval; that backoff is the loop's only failure mechanism. Failed polls
// keep the previous value (stale beats absent — the §5 staleness stance)
// and record the error; Snapshot.Confidence grades how far trust in that
// stale value has decayed. The interval is the only setting: every
// other value derives from it (see halfLifeIntervals and its neighbours).
// The done channel closes when the polling goroutine exits.
func PollWith[T any](ctx context.Context, interval time.Duration, fetch func(context.Context) (T, error)) (*Snapshot[T], <-chan struct{}) {
	if interval <= 0 {
		panic("lookingglass: poll interval must be positive")
	}
	attemptTimeout := max(interval, MinAttemptTimeout)
	snap := &Snapshot[T]{halfLife: halfLifeIntervals * interval}
	rng := rand.New(rand.NewSource(0))
	done := make(chan struct{})
	go func() {
		defer close(done)
		// attempt runs one fetch and returns the failure streak after it.
		attempt := func() int {
			actx, cancel := context.WithTimeout(ctx, attemptTimeout)
			v, err := fetch(actx)
			cancel()
			if err != nil {
				return snap.fail(err, time.Now())
			}
			snap.set(v, time.Now())
			return 0
		}
		for streak := attempt(); ; {
			d := interval
			if streak > 0 {
				d = backoffDelay(interval, streak, rng)
			}
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
				streak = attempt()
			}
		}
	}()
	return snap, done
}

// backoffDelay computes the jittered exponential retry delay for the
// consec'th consecutive failure (consec ≥ 1).
func backoffDelay(interval time.Duration, consec int, rng *rand.Rand) time.Duration {
	d, dmax := float64(interval), float64(backoffMaxIntervals*interval)
	for i := 1; i < consec && d < dmax; i++ {
		d *= backoffFactor
	}
	if d > dmax {
		d = dmax
	}
	d *= 1 + backoffJitter*(2*rng.Float64()-1)
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}
