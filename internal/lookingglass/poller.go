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

	// halfLife parameterizes Confidence (PollConfig.HalfLife); zero means
	// no decay.
	halfLife time.Duration
	// Robustness counters, maintained by the polling loop.
	polls, successes, failures, retries, skipped uint64
	consecFails                                  int
	breaker                                      *Breaker
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
// an operator needs to tell a healthy poller from one riding its breaker.
type Health struct {
	// Polls counts completed fetch attempts; Successes + Failures.
	Polls uint64
	// Successes and Failures count attempt outcomes.
	Successes, Failures uint64
	// Retries counts attempts made while already in a failure streak.
	Retries uint64
	// Skipped counts scheduled polls suppressed by an open breaker.
	Skipped uint64
	// ConsecutiveFailures is the current failure streak.
	ConsecutiveFailures int
	// Breaker is the breaker position (closed for breakerless pollers).
	Breaker BreakerState
	// BreakerCounters are the breaker's cumulative statistics.
	BreakerCounters BreakerCounters
	// Confidence is the snapshot's decayed trust at the query instant.
	Confidence float64
	// LastSuccess and LastAttempt are zero until the respective event.
	LastSuccess, LastAttempt time.Time
}

// Health reports the poller's robustness counters at now.
func (s *Snapshot[T]) Health(now time.Time) Health {
	s.mu.RLock()
	h := Health{
		Polls:               s.polls,
		Successes:           s.successes,
		Failures:            s.failures,
		Retries:             s.retries,
		Skipped:             s.skipped,
		ConsecutiveFailures: s.consecFails,
	}
	if s.ok {
		h.LastSuccess = s.at
		h.Confidence = DecayConfidence(now.Sub(s.at), s.halfLife)
	}
	if s.attempted {
		h.LastAttempt = s.attemptAt
	}
	br := s.breaker
	s.mu.RUnlock()
	if br != nil {
		h.Breaker = br.State()
		h.BreakerCounters = br.Counters()
	}
	return h
}

func (s *Snapshot[T]) set(v T, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.v, s.at, s.ok, s.err = v, at, true, nil
	s.attemptAt, s.attempted = at, true
	s.polls++
	s.successes++
	if s.consecFails > 0 {
		s.retries++
	}
	s.consecFails = 0
}

func (s *Snapshot[T]) fail(err error, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.err = err
	s.attemptAt, s.attempted = at, true
	s.polls++
	s.failures++
	if s.consecFails > 0 {
		s.retries++
	}
	s.consecFails++
}

func (s *Snapshot[T]) recordSkip() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.skipped++
}

// PollConfig parameterizes PollWith. Only Interval is required; zero
// fields take the documented defaults.
type PollConfig struct {
	// Interval is the steady-state delay between successful polls.
	// Required, positive. Each fetch also runs under a derived context
	// timing out after Interval, floored at MinAttemptTimeout, so a hung
	// peer cannot wedge the polling loop past cancellation (the fetch must
	// honor its context, as HTTP fetches do).
	Interval time.Duration
	// BackoffBase is the delay before the first retry after a failure
	// (default Interval). Subsequent consecutive failures double the delay
	// up to BackoffMax (default 8×Interval), each jittered by ±10 %.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter RNG; same seed, same retry schedule.
	Seed int64
	// Breaker configures the consecutive-failure circuit breaker
	// (BreakerConfig defaults apply; Threshold −1 disables).
	Breaker BreakerConfig
	// HalfLife is the Confidence decay half-life (0 = no decay).
	HalfLife time.Duration
}

// MinAttemptTimeout floors the derived per-attempt timeout so that tests
// polling at millisecond intervals don't time out real loopback fetches.
const MinAttemptTimeout = 250 * time.Millisecond

// backoffFactor multiplies the retry delay per consecutive failure, and
// backoffJitter is the ± fraction each delay is jittered by.
const (
	backoffFactor = 2
	backoffJitter = 0.1
)

func (c PollConfig) withDefaults() PollConfig {
	if c.BackoffBase <= 0 {
		c.BackoffBase = c.Interval
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 8 * c.Interval
	}
	return c
}

// PollWith fetches fetch() immediately and then repeatedly until ctx is
// cancelled, publishing results into the returned Snapshot. Each attempt
// runs under a derived per-attempt timeout, failures retry on jittered
// exponential backoff instead of the steady interval, and a
// consecutive-failure circuit breaker suppresses
// fetches entirely while a peer is down, probing half-open after a
// cooldown. Failed polls keep the previous value (stale beats absent — the
// §5 staleness stance) and record the error; Snapshot.Confidence grades
// how far trust in that stale value has decayed. The done channel closes
// when the polling goroutine exits.
func PollWith[T any](ctx context.Context, cfg PollConfig, fetch func(context.Context) (T, error)) (*Snapshot[T], <-chan struct{}) {
	if cfg.Interval <= 0 {
		panic("lookingglass: poll interval must be positive")
	}
	cfg = cfg.withDefaults()
	attemptTimeout := max(cfg.Interval, MinAttemptTimeout)
	snap := &Snapshot[T]{halfLife: cfg.HalfLife}
	var br *Breaker
	if cfg.Breaker.Threshold >= 0 {
		br = NewBreaker(cfg.Breaker)
		snap.breaker = br
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	done := make(chan struct{})
	go func() {
		defer close(done)
		consec := 0
		attempt := func() {
			if br != nil && !br.Allow(time.Now()) {
				snap.recordSkip()
				return
			}
			actx, cancel := context.WithTimeout(ctx, attemptTimeout)
			v, err := fetch(actx)
			cancel()
			now := time.Now()
			if err != nil {
				consec++
				if br != nil {
					br.OnFailure(now)
				}
				snap.fail(err, now)
				return
			}
			consec = 0
			if br != nil {
				br.OnSuccess(now)
			}
			snap.set(v, now)
		}
		attempt()
		for {
			d := cfg.Interval
			if consec > 0 {
				d = backoffDelay(cfg, consec, rng)
			}
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
				attempt()
			}
		}
	}()
	return snap, done
}

// backoffDelay computes the jittered exponential retry delay for the
// consec'th consecutive failure (consec ≥ 1).
func backoffDelay(cfg PollConfig, consec int, rng *rand.Rand) time.Duration {
	d := float64(cfg.BackoffBase)
	for i := 1; i < consec; i++ {
		d *= backoffFactor
		if d >= float64(cfg.BackoffMax) {
			break
		}
	}
	if d > float64(cfg.BackoffMax) {
		d = float64(cfg.BackoffMax)
	}
	d *= 1 + backoffJitter*(2*rng.Float64()-1)
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}
