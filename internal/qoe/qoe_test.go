package qoe

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBufferingRatio(t *testing.T) {
	m := SessionMetrics{PlayTime: 90 * time.Second, BufferingTime: 10 * time.Second}
	if got := m.BufferingRatio(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("ratio = %v, want 0.1", got)
	}
	if (SessionMetrics{}).BufferingRatio() != 0 {
		t.Error("empty session should have zero buffering ratio")
	}
}

func TestBitrateUtilityMonotone(t *testing.T) {
	mo := DefaultModel()
	prev := -1.0
	for _, bps := range []float64{0, 1e5, 5e5, 1e6, 2e6, 4e6, 8e6} {
		u := mo.BitrateUtility(bps)
		if u < prev {
			t.Errorf("utility decreased at %v: %v < %v", bps, u, prev)
		}
		if u < 0 || u > 1 {
			t.Errorf("utility out of range at %v: %v", bps, u)
		}
		prev = u
	}
	if mo.BitrateUtility(mo.MaxBitrate) != 1 {
		t.Errorf("utility at MaxBitrate = %v, want 1", mo.BitrateUtility(mo.MaxBitrate))
	}
	if mo.BitrateUtility(2*mo.MaxBitrate) != 1 {
		t.Error("utility above MaxBitrate should clamp to 1")
	}
}

func TestScorePerfectSession(t *testing.T) {
	mo := DefaultModel()
	m := SessionMetrics{
		StartupDelay: time.Second,
		PlayTime:     10 * time.Minute,
		AvgBitrate:   mo.MaxBitrate,
	}
	if got := mo.Score(m); got != 100 {
		t.Errorf("perfect score = %v, want 100", got)
	}
}

func TestScoreBufferingDominates(t *testing.T) {
	mo := DefaultModel()
	good := SessionMetrics{PlayTime: 10 * time.Minute, AvgBitrate: 4e6, StartupDelay: time.Second}
	bad := good
	bad.BufferingTime = 2 * time.Minute // ~16.7% buffering
	if mo.Score(bad) >= mo.Score(good) {
		t.Error("buffering did not reduce score")
	}
	// 25% buffering at max bitrate should floor the score.
	floored := SessionMetrics{PlayTime: 45 * time.Second, BufferingTime: 15 * time.Second, AvgBitrate: mo.MaxBitrate}
	if got := mo.Score(floored); got != 0 {
		t.Errorf("score at 25%% buffering = %v, want 0", got)
	}
}

func TestScoreStartupAndSwitchPenalties(t *testing.T) {
	mo := DefaultModel()
	base := SessionMetrics{PlayTime: 10 * time.Minute, AvgBitrate: 2e6, StartupDelay: time.Second}
	slow := base
	slow.StartupDelay = 10 * time.Second
	if mo.Score(slow) >= mo.Score(base) {
		t.Error("startup delay did not reduce score")
	}
	switched := base
	switched.CDNSwitches = 3
	if got, want := mo.Score(base)-mo.Score(switched), 3*mo.SwitchPenalty; math.Abs(got-want) > 1e-9 {
		t.Errorf("CDN switch penalty = %v, want %v", got, want)
	}
}

func TestEngagementSlope(t *testing.T) {
	mo := DefaultModel()
	perfect := SessionMetrics{PlayTime: time.Hour}
	if got := mo.EngagementMinutes(perfect, 60); got != 60 {
		t.Errorf("perfect engagement = %v, want 60", got)
	}
	// 1% buffering loses ~3 minutes.
	onePct := SessionMetrics{PlayTime: 99 * time.Minute, BufferingTime: time.Minute}
	if got := mo.EngagementMinutes(onePct, 60); math.Abs(got-57) > 0.01 {
		t.Errorf("engagement at 1%% buffering = %v, want 57", got)
	}
	terrible := SessionMetrics{PlayTime: time.Minute, BufferingTime: time.Hour}
	if got := mo.EngagementMinutes(terrible, 60); got != 0 {
		t.Errorf("engagement should clamp at 0, got %v", got)
	}
}

func TestFluidScore(t *testing.T) {
	mo := DefaultModel()
	mo.MaxBitrate = 3e6
	// Delivered at or above target: pure bitrate utility.
	for _, c := range []struct{ delivered, target float64 }{{3e6, 3e6}, {2e6, 1.5e6}, {1e6, 1e6}} {
		if got, want := mo.FluidScore(c.delivered, c.target), 100*mo.BitrateUtility(c.delivered); got != want {
			t.Errorf("FluidScore(%v, %v) = %v, want 100·utility %v", c.delivered, c.target, got, want)
		}
	}
	// A zero target charges no starvation.
	if got, want := mo.FluidScore(1e6, 0), 100*mo.BitrateUtility(1e6); got != want {
		t.Errorf("FluidScore with zero target = %v, want %v", got, want)
	}
	// Total starvation clamps at 0.
	if got := mo.FluidScore(0, 3e6); got != 0 {
		t.Errorf("FluidScore(0, target) = %v, want 0", got)
	}
	// A partial deficit costs the buffering penalty on half the deficit.
	if got, want := mo.FluidScore(2.7e6, 3e6), 100*mo.BitrateUtility(2.7e6)-mo.BufferingPenalty*100*0.5*0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("FluidScore(2.7M, 3M) = %v, want %v", got, want)
	}
	f := func(deliveredKbps, targetKbps uint16) bool {
		s := mo.FluidScore(float64(deliveredKbps)*1000, float64(targetKbps)*1000)
		return s >= 0 && s <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWebScore(t *testing.T) {
	if WebScore(WebMetrics{PageLoadTime: 500 * time.Millisecond}) != 100 {
		t.Error("sub-second load should score 100")
	}
	if WebScore(WebMetrics{PageLoadTime: 10 * time.Second}) != 0 {
		t.Error("10s load should score 0")
	}
	if WebScore(WebMetrics{PageLoadTime: time.Second, Aborted: true}) != 0 {
		t.Error("aborted load should score 0")
	}
	mid := WebScore(WebMetrics{PageLoadTime: 3 * time.Second})
	if mid <= 0 || mid >= 100 {
		t.Errorf("3s load score = %v, want in (0,100)", mid)
	}
}

func TestWebScoreMonotone(t *testing.T) {
	prev := 101.0
	for s := 1; s <= 9; s++ {
		got := WebScore(WebMetrics{PageLoadTime: time.Duration(s) * time.Second})
		if got > prev {
			t.Errorf("WebScore increased at %ds: %v > %v", s, got, prev)
		}
		prev = got
	}
}

// Property: scores are always within [0,100] and adding buffering never
// raises a score.
func TestQuickScoreBounds(t *testing.T) {
	mo := DefaultModel()
	f := func(playSec, bufSec, startMs uint16, brKbps uint16, switches uint8) bool {
		m := SessionMetrics{
			StartupDelay:  time.Duration(startMs) * time.Millisecond,
			PlayTime:      time.Duration(playSec) * time.Second,
			BufferingTime: time.Duration(bufSec) * time.Second,
			AvgBitrate:    float64(brKbps) * 1000,
			CDNSwitches:   int(switches),
		}
		s := mo.Score(m)
		if s < 0 || s > 100 {
			return false
		}
		worse := m
		worse.BufferingTime += 10 * time.Second
		return mo.Score(worse) <= s+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
