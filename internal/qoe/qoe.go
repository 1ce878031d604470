// Package qoe defines the application-experience metrics and models that
// EONA optimizes.
//
// The video metrics and their relative importance follow the measurement
// literature the paper builds on: buffering ratio is the dominant driver of
// engagement (Dobrian et al., SIGCOMM'11), a 1% increase in buffering ratio
// reduces viewing time by roughly 3 minutes, and each second of startup
// delay beyond 2s raises the abandonment probability by roughly 5.8%
// (Krishnan & Sitaraman, IMC'12). The web metrics model the
// web-over-cellular delivery chain of Figure 1(a).
package qoe

import (
	"math"
	"time"
)

// SessionMetrics are the client-side measurements an AppP collects for one
// video session. These are exactly the measurements exported over EONA-A2I.
type SessionMetrics struct {
	// StartupDelay is the join time: request to first frame.
	StartupDelay time.Duration
	// PlayTime is wall time spent actually rendering video.
	PlayTime time.Duration
	// BufferingTime is wall time spent stalled after startup.
	BufferingTime time.Duration
	// AvgBitrate is the time-averaged played bitrate in bits/s.
	AvgBitrate float64
	// BitrateSwitches counts ABR ladder changes.
	BitrateSwitches int
	// CDNSwitches counts whole-CDN switches (the coarse knob of §2).
	CDNSwitches int
	// ServerSwitches counts intra-CDN server switches (the fine knob
	// EONA-I2A hints enable).
	ServerSwitches int
	// Abandoned records that the viewer gave up before content ended.
	Abandoned bool
}

// BufferingRatio returns stalled time over total watch time, in [0,1].
func (m SessionMetrics) BufferingRatio() float64 {
	total := m.PlayTime + m.BufferingTime
	if total <= 0 {
		return 0
	}
	return float64(m.BufferingTime) / float64(total)
}

// Model scores sessions. The zero value is unusable; construct with
// DefaultModel and adjust fields as needed.
type Model struct {
	// MaxBitrate anchors the bitrate utility: playing at MaxBitrate
	// scores full bitrate credit. Bits/s.
	MaxBitrate float64
	// RefBitrate is the log-utility knee (the "acceptable" rate).
	RefBitrate float64
	// BufferingPenalty is score points lost per percentage point of
	// buffering ratio.
	BufferingPenalty float64
	// StartupPenalty is score points lost per second of startup delay
	// beyond StartupFreeSeconds.
	StartupPenalty float64
	// StartupFreeSeconds is the startup delay users tolerate for free.
	StartupFreeSeconds float64
	// SwitchPenalty is score points lost per CDN switch (a disruption:
	// the player re-buffers and often restarts at the lowest rung).
	SwitchPenalty float64
}

// DefaultModel returns the model used throughout the experiments: a 0–100
// score dominated by buffering ratio.
func DefaultModel() Model {
	return Model{
		MaxBitrate:         8e6,
		RefBitrate:         1e6,
		BufferingPenalty:   4.0, // 25% buffering wipes out a perfect score
		StartupPenalty:     2.0,
		StartupFreeSeconds: 2.0,
		SwitchPenalty:      1.0,
	}
}

// BitrateUtility maps a bitrate to [0,1] with logarithmic diminishing
// returns (doubling a low rate helps much more than doubling a high one).
func (mo Model) BitrateUtility(bps float64) float64 {
	if bps <= 0 {
		return 0
	}
	u := math.Log1p(bps/mo.RefBitrate) / math.Log1p(mo.MaxBitrate/mo.RefBitrate)
	return math.Min(u, 1)
}

// Score maps session metrics to a 0–100 experience score.
func (mo Model) Score(m SessionMetrics) float64 {
	s := 100 * mo.BitrateUtility(m.AvgBitrate)
	s -= mo.BufferingPenalty * 100 * m.BufferingRatio()
	extra := m.StartupDelay.Seconds() - mo.StartupFreeSeconds
	if extra > 0 {
		s -= mo.StartupPenalty * extra
	}
	s -= mo.SwitchPenalty * float64(m.CDNSwitches)
	return clamp(s, 0, 100)
}

// EngagementMinutes estimates minutes actually viewed out of an intended
// viewing duration, applying the ~3-minutes-lost-per-1%-buffering slope and
// capping at the intended duration.
func (mo Model) EngagementMinutes(m SessionMetrics, intendedMinutes float64) float64 {
	lost := 3.0 * 100 * m.BufferingRatio()
	v := intendedMinutes - lost
	return clamp(v, 0, intendedMinutes)
}

// FluidScore scores a fluid population of sessions from its per-session
// delivered and target rates in bits/s: the bitrate utility of the delivered
// rate, minus the buffering penalty on a buffering ratio of half the
// starvation 1 − delivered/target (starved sessions stall in proportion to
// their deficit). A zero target charges no starvation; the score is clamped
// to [0, 100].
func (mo Model) FluidScore(delivered, target float64) float64 {
	starvation := 0.0
	if target > 0 && delivered < target {
		starvation = 1 - delivered/target
	}
	return clamp(100*mo.BitrateUtility(delivered)-mo.BufferingPenalty*100*0.5*starvation, 0, 100)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// WebMetrics are the client-side measurements for a web page load over the
// cellular delivery chain of Figure 1(a) / Figure 4.
type WebMetrics struct {
	// TTFB is time to first byte, the network-level proxy ISPs use when
	// they cannot see real experience (Halepovic et al., IMC'12).
	TTFB time.Duration
	// PageLoadTime is the full above-the-fold load time — the real
	// experience metric only the AppP observes.
	PageLoadTime time.Duration
	// Aborted records the user navigating away before load completes.
	Aborted bool
}

// WebScore maps page load time to a 0–100 satisfaction score using an
// APDEX-style curve: full score up to 1s, zero beyond 8s, log-linear
// in between.
func WebScore(m WebMetrics) float64 {
	if m.Aborted {
		return 0
	}
	s := m.PageLoadTime.Seconds()
	switch {
	case s <= 1:
		return 100
	case s >= 8:
		return 0
	default:
		return 100 * (1 - math.Log(s)/math.Log(8))
	}
}
