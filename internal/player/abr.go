// Package player models HTTP adaptive streaming clients: buffer dynamics
// (fill at the allocated network rate, drain at the playback bitrate),
// pluggable ABR algorithms, and the connection redirections (server or CDN
// switches) that the control loops in internal/control decide on.
//
// The buffer model is the standard fluid approximation: every 500 ms tick the
// player converts downloaded bits into seconds of content at the current
// bitrate, plays one tick's worth if it has it, and stalls otherwise.
// Rebuffering, startup delay, and bitrate/CDN switch counts accumulate into
// qoe.SessionMetrics — exactly the client-side measurements EONA-A2I
// exports.
package player

import "time"

// State is the observable player state an ABR algorithm decides on.
type State struct {
	// Buffer is seconds of content buffered ahead of the playhead.
	Buffer time.Duration
	// ThroughputEMA is the smoothed observed download rate in bits/s.
	ThroughputEMA float64
	// Ladder is the ascending list of available rungs, bits/s.
	Ladder []float64
}

// ABR chooses the next bitrate rung given player state. Implementations
// must be deterministic.
type ABR interface {
	// Next returns the rung to download next; it must be one of
	// State.Ladder.
	Next(s State) float64
}

// RateBased is the classic throughput-rule ABR: pick the highest rung at or
// below Safety × smoothed throughput. This is the algorithm whose
// trial-and-error behaviour the paper's §2 scenarios criticize.
type RateBased struct {
	// Safety discounts measured throughput (typically 0.8–0.9).
	Safety float64
}

// Next implements ABR.
func (r RateBased) Next(s State) float64 {
	budget := r.Safety * s.ThroughputEMA
	pick := s.Ladder[0]
	for _, rung := range s.Ladder {
		if rung <= budget {
			pick = rung
		}
	}
	return pick
}

// BufferBased is a BBA-style ABR: the rung is a function of buffer
// occupancy alone — lowest rung below Low, highest above High, linear
// interpolation over the ladder in between.
type BufferBased struct {
	Low, High time.Duration
}

// Next implements ABR.
func (b BufferBased) Next(s State) float64 {
	n := len(s.Ladder)
	switch {
	case s.Buffer <= b.Low:
		return s.Ladder[0]
	case s.Buffer >= b.High:
		return s.Ladder[n-1]
	}
	frac := float64(s.Buffer-b.Low) / float64(b.High-b.Low)
	idx := int(frac * float64(n-1))
	if idx >= n {
		idx = n - 1
	}
	return s.Ladder[idx]
}

// Capped wraps another ABR and clamps its choice to at most Cap — this is
// how the EONA AppP control loop responds to an I2A access-congestion
// signal (Figure 3: "switch down bitrate to make the ISP less congested").
type Capped struct {
	Inner ABR
	// Cap is the maximum allowed rung in bits/s; 0 means no cap.
	Cap float64
}

// Next implements ABR.
func (c Capped) Next(s State) float64 {
	pick := c.Inner.Next(s)
	if c.Cap <= 0 || pick <= c.Cap {
		return pick
	}
	// Highest rung at or below the cap; lowest rung if none fit.
	best := s.Ladder[0]
	for _, rung := range s.Ladder {
		if rung <= c.Cap {
			best = rung
		}
	}
	return best
}
