package faults

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// TestLiveWindows drives the mutable fault set on a fake clock: windows
// open, expire, and cancel exactly like sealed plan windows.
func TestLiveWindows(t *testing.T) {
	now := time.Duration(0)
	l := NewLive(func() time.Duration { return now })

	if !l.PartnerUp() || l.Delay() != 0 {
		t.Fatal("fresh live set should be clean")
	}

	oid, w := l.AddOutage(10 * time.Second)
	if w.Start != 0 || w.End != 10*time.Second {
		t.Errorf("outage window = %+v", w)
	}
	if l.PartnerUp() {
		t.Error("partner up inside outage window")
	}
	now = 11 * time.Second
	if !l.PartnerUp() {
		t.Error("partner down after window expired")
	}

	sid, _ := l.AddLatencySpike(200*time.Millisecond, 0) // open-ended
	if got := l.Delay(); got != 200*time.Millisecond {
		t.Errorf("delay = %v, want 200ms", got)
	}
	now = 100 * time.Hour
	if got := l.Delay(); got != 200*time.Millisecond {
		t.Errorf("open-ended spike expired: delay = %v", got)
	}
	if !l.Cancel(sid) {
		t.Error("cancel known spike failed")
	}
	if got := l.Delay(); got != 0 {
		t.Errorf("delay after cancel = %v", got)
	}
	// Expired windows stay addressable until cancelled (expiry is lazy).
	if !l.Cancel(oid) {
		t.Error("cancel of expired outage id failed")
	}
	if l.Cancel(oid) {
		t.Error("double cancel reported success")
	}
}

// TestLiveWindowsClampHugeDurations: a duration that would overflow
// now+d opens a window that ends at the open end, never one that wraps
// negative and so never applies.
func TestLiveWindowsClampHugeDurations(t *testing.T) {
	l := NewLive(func() time.Duration { return time.Second })
	if _, w := l.AddOutage(math.MaxInt64); w.End != openEnd {
		t.Errorf("outage window = %+v, want End = openEnd", w)
	}
	if l.PartnerUp() {
		t.Error("partner up inside a maximal outage window")
	}
	if _, w := l.AddLatencySpike(time.Millisecond, math.MaxInt64); w.End != openEnd {
		t.Errorf("spike window = %+v, want End = openEnd", w)
	}
	if got := l.Delay(); got != time.Millisecond {
		t.Errorf("delay inside a maximal spike window = %v, want 1ms", got)
	}
}

// TestLiveGate pins the fetch gate: outage → ErrPartnerDown, spike → delay,
// clean → passthrough; nil Live gates nothing.
func TestLiveGate(t *testing.T) {
	now := time.Duration(0)
	l := NewLive(func() time.Duration { return now })
	calls := 0
	fetch := func(context.Context) (int, error) { calls++; return 42, nil }
	gated := Gate(l, fetch)

	if v, err := gated(context.Background()); err != nil || v != 42 {
		t.Fatalf("clean gate = %d, %v", v, err)
	}
	id, _ := l.AddOutage(0)
	if _, err := gated(context.Background()); !errors.Is(err, ErrPartnerDown) {
		t.Fatalf("outage gate err = %v, want ErrPartnerDown", err)
	}
	l.Cancel(id)
	if v, err := gated(context.Background()); err != nil || v != 42 {
		t.Fatalf("post-cancel gate = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("underlying fetch ran %d times, want 2", calls)
	}

	// A spike's delay respects context cancellation.
	l.AddLatencySpike(time.Hour, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := gated(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("spiked gate err = %v, want deadline exceeded", err)
	}

	if ungated := Gate[int](nil, fetch); ungated == nil {
		t.Fatal("nil live gate returned nil")
	}
}
