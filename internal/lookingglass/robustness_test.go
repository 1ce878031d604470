package lookingglass

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eona/internal/core"
	"eona/internal/wire"
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
	snap, done := PollWith(ctx, 10*time.Millisecond, fetch)

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

// TestPollScheduleUnderOutage pins the retry schedule under a permanent
// outage: fetch runs once per scheduled attempt, and the gap before retry k
// is at least 0.9 × min(2^(k−1), 8) intervals — the capped backoff less its
// jitter. Only that lower bound is asserted, because timers never fire early.
func TestPollScheduleUnderOutage(t *testing.T) {
	const interval = 20 * time.Millisecond
	const attempts = 8
	var mu sync.Mutex
	var starts []time.Time
	fetch := func(context.Context) (int, error) {
		mu.Lock()
		starts = append(starts, time.Now())
		mu.Unlock()
		return 0, errors.New("peer down")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, done := PollWith(ctx, interval, fetch)
	// Eight attempts take 20+40+80+4×160 ms ≈ 0.8 s past the first.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		n := len(starts)
		mu.Unlock()
		if n >= attempts {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d attempts in 10s, want %d", n, attempts)
		}
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	if h := snap.Health(time.Now()); uint64(len(starts)) != h.Failures {
		t.Errorf("fetch ran %d times for %d scheduled attempts", len(starts), h.Failures)
	}
	for k := 1; k < len(starts); k++ {
		want := time.Duration(0.9 * float64(min(1<<(k-1), backoffMaxIntervals)) * float64(interval))
		if gap := starts[k].Sub(starts[k-1]); gap < want {
			t.Errorf("gap before retry %d = %v, want ≥ %v", k, gap, want)
		}
	}
}

// PollWith rides out an outage on its backoff alone: the failure streak
// grows while the peer is down, the first attempt after it returns ends the
// streak, and confidence recovers.
func TestPollWithOutageRecovery(t *testing.T) {
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
	// Five failures back off 20+40+80+160 ms; retries then come every
	// 160 ms (±10 %). Confidence halves every 200 ms.
	snap, _ := PollWith(ctx, 20*time.Millisecond, fetch)

	waitFor(t, func() bool { return snap.Health(time.Now()).ConsecutiveFailures >= 5 })
	if h := snap.Health(time.Now()); h.Failures < 5 || h.Successes != 0 {
		t.Errorf("health during outage = %+v, want only failures", h)
	}

	down.Store(false)
	waitFor(t, func() bool { v, _, ok := snap.Get(); return ok && v == "recovered" })
	h := snap.Health(time.Now())
	if h.ConsecutiveFailures != 0 {
		t.Errorf("health after recovery = %+v, want the failure streak ended", h)
	}
	if h.Retries == 0 {
		t.Errorf("health after recovery = %+v, want retries counted", h)
	}
	// Polls now land every interval, so one soon finds the snapshot at most
	// a few milliseconds old.
	waitFor(t, func() bool { return snap.Health(time.Now()).Confidence > 0.9 })
}

// TestPollSettingsDeriveFromInterval pins the values the interval sets, at
// eona-lg's default 10 s: retries back off 10 s, 20 s, 40 s, then 80 s on,
// each within ±10 % jitter; confidence halves every 100 s.
func TestPollSettingsDeriveFromInterval(t *testing.T) {
	const interval = 10 * time.Second
	rng := rand.New(rand.NewSource(1))
	for consec, want := range map[int]time.Duration{
		1: 10 * time.Second, 2: 20 * time.Second, 3: 40 * time.Second,
		4: 80 * time.Second, 5: 80 * time.Second, 50: 80 * time.Second,
	} {
		for i := 0; i < 100; i++ {
			if d := backoffDelay(interval, consec, rng); d < want*9/10 || d > want*11/10 {
				t.Fatalf("retry %d waits %v, want %v ± 10%%", consec, d, want)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	snap, done := PollWith(ctx, interval, func(context.Context) (int, error) { return 0, nil })
	cancel()
	<-done
	if snap.halfLife != 100*time.Second {
		t.Errorf("confidence half-life = %v, want 100s", snap.halfLife)
	}
}

// Snapshot methods must be race-free under concurrent set/fail/read load;
// run with -race to enforce.
func TestSnapshotConcurrentConfidence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	snap, _ := PollWith(ctx, time.Millisecond, func(context.Context) (int64, error) {
		// One success in six attempts: set, fail and the failure streak
		// all churn while readers run.
		v := n.Add(1)
		if v%6 != 0 {
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

// Regression: a body past maxResponseBytes used to be cut off silently and
// then fail as a malformed envelope. A body exactly at the limit decodes; one
// byte more is refused with an error that names the limit.
func TestOversizedBodyNamesTheLimit(t *testing.T) {
	msg, err := wire.Encode(wire.TypeQoESummaries, 1, []core.QoESummary{{Sessions: 3}})
	if err != nil {
		t.Fatal(err)
	}
	var size atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Trailing whitespace keeps the envelope valid at any size.
		io.WriteString(w, string(msg)+strings.Repeat(" ", int(size.Load())-len(msg)))
	}))
	defer ts.Close()
	client := NewClient(ts.URL, "tok", ts.Client())

	size.Store(maxResponseBytes)
	if got, err := client.QoESummaries(context.Background()); err != nil || len(got) != 1 || got[0].Sessions != 3 {
		t.Fatalf("body of exactly %d bytes: %v, %v", maxResponseBytes, got, err)
	}
	size.Store(maxResponseBytes + 1)
	_, err = client.QoESummaries(context.Background())
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(maxResponseBytes)) {
		t.Fatalf("body of %d bytes: err = %v, want one naming the %d-byte limit", maxResponseBytes+1, err, maxResponseBytes)
	}
}
