package lookingglass

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
)

func TestPollPublishesAndRefreshes(t *testing.T) {
	var mu sync.Mutex
	val := 1
	fetch := func(context.Context) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return val, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, done := PollWith(ctx, 5*time.Millisecond, fetch)

	waitFor(t, func() bool { v, _, ok := snap.Get(); return ok && v == 1 })
	mu.Lock()
	val = 2
	mu.Unlock()
	waitFor(t, func() bool { v, _, _ := snap.Get(); return v == 2 })

	if _, at, ok := snap.Get(); !ok || time.Since(at) < 0 || time.Since(at) > time.Minute {
		t.Errorf("age = %v, %v", time.Since(at), ok)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("poller did not stop on cancel")
	}
}

func TestPollKeepsStaleValueOnError(t *testing.T) {
	var mu sync.Mutex
	fail := false
	fetch := func(context.Context) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return "", errors.New("peer down")
		}
		return "fresh", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, _ := PollWith(ctx, 5*time.Millisecond, fetch)
	waitFor(t, func() bool { _, _, ok := snap.Get(); return ok })

	mu.Lock()
	fail = true
	mu.Unlock()
	waitFor(t, func() bool { return snap.Err() != nil })

	// Stale beats absent: the last good value survives the outage.
	if v, _, ok := snap.Get(); !ok || v != "fresh" {
		t.Errorf("stale value lost during outage: %q, %v", v, ok)
	}

	mu.Lock()
	fail = false
	mu.Unlock()
	waitFor(t, func() bool { return snap.Err() == nil })
}

func TestPollNeverSucceeded(t *testing.T) {
	fetch := func(context.Context) (int, error) { return 0, errors.New("always down") }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, _ := PollWith(ctx, 5*time.Millisecond, fetch)
	waitFor(t, func() bool { return snap.Err() != nil })
	if _, _, ok := snap.Get(); ok {
		t.Error("Get reported ok with no successful poll")
	}
	if _, at, _ := snap.Get(); !at.IsZero() {
		t.Errorf("fetch time %v reported with no successful poll", at)
	}
}

// Regression: while polls fail, Get's fetchedAt freezes at the last success
// but LastAttempt keeps advancing — a control loop can tell "failing" from
// "slow interval". Before the fix, fail() recorded no timestamp and a peer
// that died kept reporting the stale fetchedAt as its only clock.
func TestSnapshotLastAttemptAdvancesOnFailure(t *testing.T) {
	var mu sync.Mutex
	fail := false
	fetch := func(context.Context) (string, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return "", errors.New("peer down")
		}
		return "fresh", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, _ := PollWith(ctx, 2*time.Millisecond, fetch)
	waitFor(t, func() bool { _, _, ok := snap.Get(); return ok })
	_, fetchedAt, _ := snap.Get()
	firstAttempt, ok := snap.LastAttempt()
	if !ok {
		t.Fatal("LastAttempt not recorded after a successful poll")
	}
	if firstAttempt.Before(fetchedAt) {
		t.Errorf("LastAttempt %v before fetchedAt %v after success", firstAttempt, fetchedAt)
	}

	mu.Lock()
	fail = true
	mu.Unlock()
	waitFor(t, func() bool { return snap.Err() != nil })
	// Successful polls may have landed between the reads above and the
	// switch to failing. Polls run one at a time, so once a failure is
	// visible no success can follow: re-read the clocks here, where they are
	// the outage's baseline.
	_, fetchedAt, _ = snap.Get()
	firstAttempt, _ = snap.LastAttempt()
	// Let at least one more failing poll land.
	waitFor(t, func() bool {
		at, _ := snap.LastAttempt()
		return at.After(firstAttempt)
	})

	_, fetchedAt2, _ := snap.Get()
	if !fetchedAt2.Equal(fetchedAt) {
		t.Errorf("fetchedAt moved during outage: %v -> %v", fetchedAt, fetchedAt2)
	}
	at, _ := snap.LastAttempt()
	if !at.After(fetchedAt) {
		t.Errorf("LastAttempt %v did not advance past stale fetchedAt %v", at, fetchedAt)
	}
	if at, ok := snap.LastAttempt(); !ok || time.Since(at) < 0 || time.Since(at) > time.Minute {
		t.Errorf("time since last attempt = %v, %v", time.Since(at), ok)
	}
}

func TestSnapshotLastAttemptBeforeAnyPoll(t *testing.T) {
	var s Snapshot[int]
	if at, ok := s.LastAttempt(); ok || !at.IsZero() {
		t.Errorf("LastAttempt = %v, %v with no poll completed", at, ok)
	}
}

func TestSnapshotLastAttemptOnNeverSucceeded(t *testing.T) {
	fetch := func(context.Context) (int, error) { return 0, errors.New("always down") }
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, _ := PollWith(ctx, 2*time.Millisecond, fetch)
	waitFor(t, func() bool { return snap.Err() != nil })
	if _, _, ok := snap.Get(); ok {
		t.Error("Get ok with no success")
	}
	// Even with zero successes the attempt clock must run: this is what
	// distinguishes "failing since start" from "not polling at all".
	if _, ok := snap.LastAttempt(); !ok {
		t.Error("LastAttempt not recorded for failing-only poller")
	}
	// Health leaves the success timestamp absent until a success.
	if h := snap.Health(time.Now()); h.LastSuccess != nil || h.LastAttempt == nil {
		t.Errorf("health of a failing-only poller: LastSuccess %v, LastAttempt %v", h.LastSuccess, h.LastAttempt)
	}
}

func TestPollBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero interval did not panic")
		}
	}()
	PollWith(context.Background(), 0, func(context.Context) (int, error) { return 0, nil })
}

func TestPollAgainstRealServer(t *testing.T) {
	ts, store := newTestServer(t, nil, testSources())
	client := NewClient(ts.URL, "tok-full", ts.Client())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	snap, _ := PollWith(ctx, 10*time.Millisecond, func(ctx context.Context) ([]core.PeeringInfo, error) {
		return client.PeeringInfo(ctx, "cdnX")
	})
	waitFor(t, func() bool { _, _, ok := snap.Get(); return ok })
	v, _, _ := snap.Get()
	if len(v) != 1 || v[0].PeeringID != "B" {
		t.Errorf("polled peering = %+v", v)
	}

	// Revoke the token mid-flight: the poller keeps the stale snapshot
	// and surfaces the error.
	store.Revoke("tok-full")
	waitFor(t, func() bool { return snap.Err() != nil })
	var se *StatusError
	if !errors.As(snap.Err(), &se) || se.Code != 401 {
		t.Errorf("post-revocation poll error = %v, want 401", snap.Err())
	}
	if v, _, ok := snap.Get(); !ok || len(v) != 1 {
		t.Error("stale snapshot lost after revocation")
	}
}

func TestSnapshotConcurrentAccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	snap, _ := PollWith(ctx, time.Millisecond, func(context.Context) (int, error) {
		n++
		return n, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				snap.Get()
				snap.Err()
				snap.Confidence(time.Now())
				snap.LastAttempt()
				snap.Health(time.Now())
			}
		}()
	}
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

// A 304 is a fresh answer: a poller whose partner's summaries are unchanged
// gets 304s, from the reply memo once the value is held there, and each one
// renews the snapshot exactly as a 200 does.
func TestPollNotModifiedIsFresh(t *testing.T) {
	payload := summaries128("x")[:8]
	store := auth.NewStore()
	store.Register("tok", "p", auth.ScopeA2IQoE)
	srv := NewServer(store, nil, Sources{QoESummaries: func() []core.QoESummary { return slices.Clone(payload) }})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ct := &countingTransport{inner: ts.Client().Transport}
	client := NewClient(ts.URL, "tok", &http.Client{Transport: ct})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Each poll waits for a step, so the test inspects the snapshot between
	// polls.
	step := make(chan struct{})
	snap, done := PollWith(ctx, time.Millisecond, func(context.Context) ([]core.QoESummary, error) {
		select {
		case <-step:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return client.QoESummaries(ctx)
	})

	var prev time.Time
	for i := uint64(1); i <= 4; i++ {
		step <- struct{}{}
		waitFor(t, func() bool { return snap.Health(time.Now()).Successes == i })
		v, at, ok := snap.Get()
		if !ok || !at.After(prev) {
			t.Fatalf("poll %d: fetchedAt %v did not advance past %v", i, at, prev)
		}
		if c := snap.Confidence(at); c != 1 {
			t.Errorf("poll %d: confidence %v at fetchedAt, want 1", i, c)
		}
		if h := snap.Health(at); h.Successes != i || h.Failures != 0 {
			t.Errorf("poll %d: %d successes, %d failures", i, h.Successes, h.Failures)
		}
		if !reflect.DeepEqual(v, payload) {
			t.Errorf("poll %d: snapshot holds %d summaries, not the served ones", i, len(v))
		}
		if ok, notMod := ct.ok.Load(), ct.notMod.Load(); ok != 1 || notMod != int64(i-1) {
			t.Fatalf("poll %d: %d 200s and %d 304s, want 1 and %d", i, ok, notMod, i-1)
		}
		prev = at
	}
	sl := srv.summaries.slot("p")
	sl.mu.Lock()
	held := sl.holding(payload, sameSummary) != nil
	sl.mu.Unlock()
	if !held {
		t.Error("the reply memo does not hold the unchanged summaries: the 304s were re-encoded")
	}
	cancel()
	<-done
}
