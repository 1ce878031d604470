package lookingglass

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDecayConfidence(t *testing.T) {
	hl := time.Hour
	cases := []struct {
		age  time.Duration
		want float64
	}{
		{0, 1},
		{-time.Minute, 1},
		{time.Hour, 0.5},
		{2 * time.Hour, 0.25},
		{3 * time.Hour, 0.125},
	}
	for _, c := range cases {
		if got := DecayConfidence(c.age, hl); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DecayConfidence(%v, 1h) = %v, want %v", c.age, got, c.want)
		}
	}
	// No half-life means no decay: the legacy binary stance.
	if got := DecayConfidence(100*time.Hour, 0); got != 1 {
		t.Errorf("DecayConfidence with zero half-life = %v, want 1", got)
	}
	// Monotone non-increasing between fetches (the §5 contract).
	prev := 1.0
	for age := time.Duration(0); age <= 10*time.Hour; age += 7 * time.Minute {
		c := DecayConfidence(age, hl)
		if c > prev {
			t.Fatalf("confidence rose with age: %v at %v after %v", c, age, prev)
		}
		prev = c
	}
}

func TestSnapshotConfidence(t *testing.T) {
	t0 := time.Now()
	s := &Snapshot[int]{halfLife: time.Hour}
	if c := s.Confidence(t0); c != 0 {
		t.Errorf("confidence before any success = %v, want 0", c)
	}
	s.set(42, t0)
	if c := s.Confidence(t0); c != 1 {
		t.Errorf("confidence at fetch instant = %v, want 1", c)
	}
	if c := s.Confidence(t0.Add(time.Hour)); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("confidence after one half-life = %v, want 0.5", c)
	}
	// A failed poll keeps decaying the old value's trust; a fresh success
	// restores it to 1.
	s.fail(errors.New("down"), t0.Add(30*time.Minute))
	if c := s.Confidence(t0.Add(time.Hour)); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("confidence after failure = %v, want 0.5 (age from last success)", c)
	}
	s.set(43, t0.Add(2*time.Hour))
	if c := s.Confidence(t0.Add(2 * time.Hour)); c != 1 {
		t.Errorf("confidence after recovery = %v, want 1", c)
	}
}

func TestBreakerTransitions(t *testing.T) {
	t0 := time.Now()
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute})

	// Closed: failures below threshold keep it closed.
	for i := 0; i < 2; i++ {
		if !b.Allow(t0) {
			t.Fatal("closed breaker refused an exchange")
		}
		b.OnFailure(t0)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", b.State())
	}
	// A success resets the streak.
	b.OnSuccess(t0)
	if b.ConsecutiveFailures() != 0 {
		t.Fatal("success did not reset the failure streak")
	}

	// Threshold consecutive failures open it.
	for i := 0; i < 3; i++ {
		b.Allow(t0)
		b.OnFailure(t0)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 failures = %v, want open", b.State())
	}
	if b.Allow(t0.Add(30 * time.Second)) {
		t.Error("open breaker admitted an exchange before cooldown")
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	probeAt := t0.Add(time.Minute)
	if !b.Allow(probeAt) {
		t.Fatal("breaker did not admit the half-open probe after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	if b.Allow(probeAt) {
		t.Error("second exchange admitted while probe in flight")
	}

	// Failed probe re-opens immediately and restarts the cooldown.
	b.OnFailure(probeAt)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Allow(probeAt.Add(30 * time.Second)) {
		t.Error("re-opened breaker admitted an exchange before new cooldown")
	}

	// Successful probe closes.
	probe2 := probeAt.Add(time.Minute)
	if !b.Allow(probe2) {
		t.Fatal("second probe not admitted")
	}
	b.OnSuccess(probe2)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.Allow(probe2) {
		t.Error("closed breaker refused an exchange after recovery")
	}

	c := b.Counters()
	if c.Opens != 2 || c.Probes != 2 {
		t.Errorf("counters = %+v, want 2 opens and 2 probes", c)
	}
	if c.Skipped == 0 || c.Allowed == 0 {
		t.Errorf("counters = %+v, want nonzero allowed and skipped", c)
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: -1})
	t0 := time.Now()
	for i := 0; i < 100; i++ {
		if !b.Allow(t0) {
			t.Fatal("disabled breaker refused an exchange")
		}
		b.OnFailure(t0)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("disabled breaker state = %v, want closed", b.State())
	}
}

// Regression: a fetch that hangs (honoring only its context) used to wedge
// the polling goroutine forever — no retries, no error surfaced, and the
// snapshot frozen. The per-attempt timeout bounds each fetch so the loop
// keeps breathing.
func TestPollAttemptTimeoutUnwedgesHungFetch(t *testing.T) {
	var calls atomic.Int64
	fetch := func(ctx context.Context) (int, error) {
		calls.Add(1)
		<-ctx.Done() // hang until the per-attempt deadline fires
		return 0, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, done := PollWith(ctx, breakerless(10*time.Millisecond), fetch)

	waitFor(t, func() bool { return snap.Err() != nil })
	if !errors.Is(snap.Err(), context.DeadlineExceeded) {
		t.Errorf("hung fetch error = %v, want deadline exceeded", snap.Err())
	}
	// The loop must move on to further attempts, not stay wedged in one.
	waitFor(t, func() bool { return calls.Load() >= 2 })

	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("poller did not stop on cancel")
	}
}

// PollWith rides its breaker through an outage: failures open it, scheduled
// polls are skipped instead of hammering the dead peer, a half-open probe
// discovers recovery, and the snapshot refreshes.
func TestPollWithBreakerRecovery(t *testing.T) {
	var down atomic.Bool
	down.Store(true)
	fetch := func(context.Context) (string, error) {
		if down.Load() {
			return "", errors.New("peer down")
		}
		return "recovered", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, _ := PollWith(ctx, PollConfig{
		Interval:    5 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Breaker:     BreakerConfig{Threshold: 2, Cooldown: 40 * time.Millisecond},
		HalfLife:    time.Hour,
	}, fetch)

	// Outage: the breaker opens and starts skipping scheduled polls.
	waitFor(t, func() bool { return snap.Health(time.Now()).Skipped > 0 })
	h := snap.Health(time.Now())
	if h.BreakerCounters.Opens == 0 {
		t.Errorf("health during outage = %+v, want an open", h)
	}
	if h.Failures == 0 || h.ConsecutiveFailures == 0 {
		t.Errorf("health during outage = %+v, want failures recorded", h)
	}

	// Recovery: a half-open probe finds the peer back and closes the loop.
	down.Store(false)
	waitFor(t, func() bool { v, _, ok := snap.Get(); return ok && v == "recovered" })
	waitFor(t, func() bool { return snap.Health(time.Now()).Breaker == BreakerClosed })
	h = snap.Health(time.Now())
	if h.BreakerCounters.Probes == 0 {
		t.Errorf("health after recovery = %+v, want a probe", h)
	}
	if h.Retries == 0 {
		t.Errorf("health after recovery = %+v, want retries counted", h)
	}
	if h.Confidence <= 0.9 {
		t.Errorf("confidence right after recovery = %v, want ~1", h.Confidence)
	}
}

// Snapshot methods must be race-free under concurrent set/fail/read load;
// run with -race to enforce.
func TestSnapshotConcurrentConfidence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	snap, _ := PollWith(ctx, PollConfig{
		Interval:    time.Millisecond,
		BackoffBase: time.Millisecond,
		HalfLife:    time.Second,
		Breaker:     BreakerConfig{Threshold: 3, Cooldown: 5 * time.Millisecond},
	}, func(context.Context) (int64, error) {
		// Alternate success and failure so set, fail, and the breaker all
		// churn while readers run.
		v := n.Add(1)
		if v%2 == 0 {
			return 0, errors.New("flaky")
		}
		return v, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 300; j++ {
				snap.Get()
				snap.Err()
				snap.Confidence(time.Now())
				snap.Health(time.Now())
				snap.LastAttempt()
			}
		}()
	}
	wg.Wait()
}

// Regression: StatusError used to embed the entire error response body; a
// misbehaving peer answering 500 with megabytes of garbage turned every log
// line into a payload dump.
func TestStatusErrorBodyTruncated(t *testing.T) {
	huge := strings.Repeat("x", 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, huge)
	}))
	defer ts.Close()

	client := NewClient(ts.URL, "tok", ts.Client())
	_, err := client.PeeringInfo(context.Background(), "cdnX")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error = %v, want StatusError", err)
	}
	if se.Code != http.StatusInternalServerError {
		t.Errorf("code = %d, want 500", se.Code)
	}
	if len(se.Message) > maxErrorMessageBytes+len("... (truncated)") {
		t.Errorf("message length = %d, want ≤ %d", len(se.Message), maxErrorMessageBytes)
	}
	if !strings.HasSuffix(se.Message, "... (truncated)") {
		t.Errorf("message not marked truncated: %q...", se.Message[:40])
	}
	if len(se.Error()) > 2048 {
		t.Errorf("Error() string still huge: %d bytes", len(se.Error()))
	}
}
