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
	NewFlowMonitor(e, time.Second,
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
}

func TestFlowMonitorRecoveryResetsStreak(t *testing.T) {
	e := sim.NewEngine(1)
	rate, demand := 10.0, 100.0
	fired := 0
	m := NewFlowMonitor(e, time.Second,
		func() float64 { return rate },
		func() float64 { return demand },
		func(*FlowMonitor) { fired++ })
	// One starved check, then recovery before the streak completes.
	e.Schedule(1500*time.Millisecond, func(*sim.Engine) { rate = 100 })
	e.Run(5 * time.Second)
	if fired != 0 {
		t.Errorf("fired = %d after recovery mid-streak, want 0", fired)
	}
	if m.Starved() != 0 {
		t.Errorf("streak = %d after recovery, want 0", m.Starved())
	}
}

func TestFlowMonitorZeroDemandIsHealthy(t *testing.T) {
	e := sim.NewEngine(1)
	fired := 0
	NewFlowMonitor(e, time.Second,
		func() float64 { return 0 },
		func() float64 { return 0 },
		func(*FlowMonitor) { fired++ })
	e.Run(5 * time.Second)
	if fired != 0 {
		t.Errorf("fired = %d on idle flow, want 0", fired)
	}
}

// Stop must cancel the pending tick outright: no dead event left to fire or
// drag the clock.
func TestFlowMonitorStopLeavesNoEvent(t *testing.T) {
	e := sim.NewEngine(1)
	checks := 0
	m := NewFlowMonitor(e, time.Minute,
		func() float64 { checks++; return 0 },
		func() float64 { return 1 },
		nil)
	m.Stop()
	if end := e.RunUntilIdle(); end != 0 {
		t.Errorf("idle clock = %v after Stop, want 0", end)
	}
	if e.Processed != 0 {
		t.Errorf("Processed = %d after Stop, want 0", e.Processed)
	}
	if checks != 0 {
		t.Errorf("rate read %d times after immediate Stop, want 0", checks)
	}
}
