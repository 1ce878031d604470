package control

import (
	"time"

	"eona/internal/player"
	"eona/internal/sim"
)

// Reason classifies why a session monitor fired.
type Reason int

const (
	// ReasonBuffering: the recent buffering ratio crossed the threshold.
	ReasonBuffering Reason = iota
	// ReasonNoProgress: throughput collapsed (e.g., the server died) —
	// nothing is arriving at all.
	ReasonNoProgress
	// ReasonSlowStart: playback has not begun after slowStartAfter.
	ReasonSlowStart
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonBuffering:
		return "buffering"
	case ReasonNoProgress:
		return "no-progress"
	case ReasonSlowStart:
		return "slow-start"
	default:
		return "unknown"
	}
}

// The session monitor's thresholds.
const (
	// monitorEvery is the monitoring period.
	monitorEvery = 2 * time.Second
	// bufferingThreshold is the recent buffering ratio that triggers
	// ReasonBuffering.
	bufferingThreshold = 0.15
	// noProgressAfter triggers ReasonNoProgress when the smoothed
	// throughput stays below 1 kbps for this long while the player is
	// not done.
	noProgressAfter = 6 * time.Second
	// slowStartAfter triggers ReasonSlowStart when playback has not begun
	// after this much startup delay.
	slowStartAfter = 20 * time.Second
	// cooldown suppresses re-triggering after a reaction (both monitors).
	cooldown = 10 * time.Second
)

// Monitor watches one player session and invokes a reaction callback when
// experience degrades — this is the per-session half of an AppP control
// loop (the other half, the fleet-level policy, decides what the reaction
// does: baseline CDN switch vs. EONA-informed response).
type Monitor struct {
	player *player.Player
	coal   *Coalescer
	react  func(*Monitor, Reason)

	lastPlay      time.Duration
	lastBuffering time.Duration
	noProgressFor time.Duration
	mutedUntil    time.Duration
}

// NewMonitor attaches a monitor to a player and starts its periodic check,
// which ends itself once the player is done. react runs inside the
// simulation loop; it may redirect the player.
//
// A non-nil coal defers each reaction to the end of the current simulated
// instant, where the Coalescer folds every reaction deferred there (by any
// monitor sharing it) into one allocator batch; the cooldown still starts
// at fire time. A nil coal reacts immediately.
func NewMonitor(e *sim.Engine, p *player.Player, coal *Coalescer, react func(*Monitor, Reason)) *Monitor {
	m := &Monitor{
		player: p,
		coal:   coal,
		react:  react,
	}
	e.Every(monitorEvery, m.check)
	return m
}

// Player returns the monitored player.
func (m *Monitor) Player() *player.Player { return m.player }

// RecentBufferingRatio returns the buffering ratio over the last check
// interval (not the whole session), so a long-healthy session still reacts
// quickly when conditions change.
func (m *Monitor) recentBufferingRatio() (float64, bool) {
	cur := m.player.Metrics()
	dPlay := cur.PlayTime - m.lastPlay
	dBuf := cur.BufferingTime - m.lastBuffering
	m.lastPlay = cur.PlayTime
	m.lastBuffering = cur.BufferingTime
	total := dPlay + dBuf
	if total <= 0 {
		return 0, false
	}
	return float64(dBuf) / float64(total), true
}

func (m *Monitor) check(e *sim.Engine) bool {
	if m.player.Done() {
		return false
	}
	ratio, ok := m.recentBufferingRatio()

	// No-progress detection.
	if m.player.ThroughputEMA() < 1e3 {
		m.noProgressFor += monitorEvery
	} else {
		m.noProgressFor = 0
	}

	if e.Now() < m.mutedUntil {
		return true
	}
	cur := m.player.Metrics()
	switch {
	case m.noProgressFor >= noProgressAfter:
		m.fire(e, ReasonNoProgress)
	case cur.PlayTime == 0 && cur.StartupDelay >= slowStartAfter:
		m.fire(e, ReasonSlowStart)
	case ok && ratio >= bufferingThreshold:
		m.fire(e, ReasonBuffering)
	}
	return true
}

func (m *Monitor) fire(e *sim.Engine, r Reason) {
	m.mutedUntil = e.Now() + cooldown
	m.noProgressFor = 0
	if m.react == nil {
		return
	}
	if m.coal != nil {
		m.coal.Defer(func() { m.react(m, r) })
		return
	}
	m.react(m, r)
}
