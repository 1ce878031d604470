package control

import (
	"testing"
	"time"

	"eona/internal/sim"
)

func TestFlowMonitorFiresOnStreak(t *testing.T) {
	e := sim.NewEngine(1)
	rate, demand := 100.0, 100.0
	fired := 0
	m := NewFlowMonitor(e, time.Second,
		func() float64 { return rate },
		func() float64 { return demand },
		func(*FlowMonitor) { fired++ })

	// Healthy for 3s, then starved.
	e.Schedule(3*time.Second+time.Millisecond, func(*sim.Engine) { rate = 10 })
	e.Run(4 * time.Second)
	if fired != 0 {
		t.Fatalf("fired after one starved check, want streak of 2")
	}
	e.Run(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d after 2 starved checks, want 1", fired)
	}

	// Cooldown: still starved, but muted for 10s after the trigger.
	e.Run(14 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d during cooldown, want 1", fired)
	}
	// Past the cooldown the streak rebuilds and fires again.
	e.Run(20 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d after cooldown, want 2", fired)
	}
	if m.Triggers != fired {
		t.Errorf("Triggers = %d, want %d", m.Triggers, fired)
	}
}

func TestFlowMonitorRecoveryResetsStreak(t *testing.T) {
	e := sim.NewEngine(1)
	rate, demand := 10.0, 100.0
	m := NewFlowMonitor(e, time.Second,
		func() float64 { return rate },
		func() float64 { return demand },
		nil)
	// One starved check, then recovery before the streak completes.
	e.Schedule(1500*time.Millisecond, func(*sim.Engine) { rate = 100 })
	e.Run(5 * time.Second)
	if m.Triggers != 0 {
		t.Errorf("Triggers = %d after recovery mid-streak, want 0", m.Triggers)
	}
	if m.Starved() != 0 {
		t.Errorf("streak = %d after recovery, want 0", m.Starved())
	}
}

func TestFlowMonitorZeroDemandIsHealthy(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewFlowMonitor(e, time.Second,
		func() float64 { return 0 },
		func() float64 { return 0 },
		nil)
	e.Run(5 * time.Second)
	if m.Triggers != 0 {
		t.Errorf("Triggers = %d on idle flow, want 0", m.Triggers)
	}
}

// Stop must cancel the pending tick outright: no dead event left to fire or
// drag the clock.
func TestFlowMonitorStopLeavesNoEvent(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewFlowMonitor(e, time.Minute,
		func() float64 { return 0 },
		func() float64 { return 1 },
		nil)
	m.Stop()
	if end := e.RunUntilIdle(); end != 0 {
		t.Errorf("idle clock = %v after Stop, want 0", end)
	}
	if e.Processed != 0 {
		t.Errorf("Processed = %d after Stop, want 0", e.Processed)
	}
	if m.Checks != 0 {
		t.Errorf("Checks = %d after immediate Stop, want 0", m.Checks)
	}
}
