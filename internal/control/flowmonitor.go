package control

import (
	"time"

	"eona/internal/sim"
)

const (
	// starvedBelow is the achieved/demanded rate ratio under which a
	// FlowMonitor check counts as starved.
	starvedBelow = 0.9
	// starvedStreak is how many starved checks in a row trigger a
	// reaction: a single congested instant is noise, a streak is a signal.
	starvedStreak = 2
)

// FlowMonitor watches one flow's achieved rate against its demand and fires
// a reaction after a streak of starved checks. Unlike Monitor it is not
// coupled to a player: it reads through two caller-supplied funcs, so a
// partitioned scenario can hand it snapshot reads from a
// netsim.SharedNetwork (safe from any goroutine) while the flow itself is
// mutated elsewhere through per-partition Drivers. That makes it the
// monitor-fleet building block for the multi-driver engine: a region's
// monitors tick inside the region's sim partition and only observe
// last-commit state.
type FlowMonitor struct {
	rate   func() float64
	demand func() float64
	react  func(*FlowMonitor)

	starved    int
	mutedUntil time.Duration
	stop       func()
}

// NewFlowMonitor starts a monitor on e that checks every period, reading
// the flow's achieved rate and current demand through the given funcs.
// react runs inside the simulation loop, on e's goroutine/partition. A
// zero-demand read counts as healthy (the flow is idle, not starved).
func NewFlowMonitor(e *sim.Engine, every time.Duration, rate, demand func() float64, react func(*FlowMonitor)) *FlowMonitor {
	m := &FlowMonitor{rate: rate, demand: demand, react: react}
	m.stop = e.Every(every, m.check)
	return m
}

// Stop detaches the monitor; its pending tick is cancelled, not orphaned.
func (m *FlowMonitor) Stop() {
	if m.stop != nil {
		m.stop()
	}
}

// Starved reports the current streak of starved checks.
func (m *FlowMonitor) Starved() int { return m.starved }

func (m *FlowMonitor) check(e *sim.Engine) bool {
	d := m.demand()
	if d <= 0 || m.rate() >= starvedBelow*d {
		m.starved = 0
		return true
	}
	m.starved++
	if e.Now() < m.mutedUntil || m.starved < starvedStreak {
		return true
	}
	m.mutedUntil = e.Now() + cooldown
	m.starved = 0
	if m.react != nil {
		m.react(m)
	}
	return true
}
