package control

import (
	"math"
	"testing"
	"time"

	"eona/internal/player"
	"eona/internal/sim"
)

type scriptConn struct {
	rate   float64
	demand float64
}

func (c *scriptConn) Rate() float64 {
	if c.demand == 0 {
		return 0
	}
	return math.Min(c.rate, c.demand)
}
func (c *scriptConn) SetDemand(bps float64) { c.demand = bps }
func (c *scriptConn) Close()                {}

// fixedABR always picks the same rung.
type fixedABR float64

func (f fixedABR) Next(player.State) float64 { return float64(f) }

func newSession(e *sim.Engine, rate float64, content time.Duration) (*player.Player, *scriptConn) {
	p := player.New(e, player.Config{
		Ladder: []float64{300e3, 1e6, 3e6},
		ABR:    fixedABR(1e6),
	}, content)
	c := &scriptConn{rate: rate}
	p.Start(c, 0)
	return p, c
}

func TestMonitorQuietOnHealthySession(t *testing.T) {
	e := sim.NewEngine(1)
	p, _ := newSession(e, 5e6, time.Minute)
	fired := 0
	NewMonitor(e, p, nil, func(*Monitor, Reason) { fired++ })
	e.Run(2 * time.Minute)
	if fired != 0 {
		t.Errorf("monitor fired %d times on a healthy session", fired)
	}
}

func TestMonitorFiresOnBuffering(t *testing.T) {
	e := sim.NewEngine(1)
	p, conn := newSession(e, 1e6, 5*time.Minute)
	var reasons []Reason
	NewMonitor(e, p, nil, func(_ *Monitor, r Reason) { reasons = append(reasons, r) })
	// Starve mid-session: 1e6 rung on a 100kbps link.
	e.Schedule(20*time.Second, func(*sim.Engine) { conn.rate = 1e5 })
	e.Run(90 * time.Second)
	if len(reasons) == 0 {
		t.Fatal("monitor never fired despite starvation")
	}
	if reasons[0] != ReasonBuffering {
		t.Errorf("first reason = %v, want buffering", reasons[0])
	}
	for i, r := range reasons {
		if r != ReasonBuffering {
			t.Errorf("reaction %d reason = %v, want buffering", i, r)
		}
	}
}

func TestMonitorCooldownLimitsFiring(t *testing.T) {
	e := sim.NewEngine(1)
	p, conn := newSession(e, 1e6, 10*time.Minute)
	fired := 0
	NewMonitor(e, p, nil, func(*Monitor, Reason) { fired++ })
	e.Schedule(10*time.Second, func(*sim.Engine) { conn.rate = 1e4 })
	e.Run(70 * time.Second)
	// ~60s of continuous misery: a check every 2s would fire ~30 times,
	// the 10s cooldown allows at most one firing per 10s.
	if fired > 6 {
		t.Errorf("fired %d times, cooldown not enforced", fired)
	}
	if fired == 0 {
		t.Error("never fired")
	}
}

func TestMonitorNoProgress(t *testing.T) {
	e := sim.NewEngine(1)
	p, conn := newSession(e, 2e6, 10*time.Minute)
	var got []Reason
	NewMonitor(e, p, nil, func(_ *Monitor, r Reason) { got = append(got, r) })
	// Server dies completely at 20s.
	e.Schedule(20*time.Second, func(*sim.Engine) { conn.rate = 0 })
	e.Run(2 * time.Minute)
	foundNoProgress := false
	for _, r := range got {
		if r == ReasonNoProgress {
			foundNoProgress = true
		}
	}
	if !foundNoProgress {
		t.Errorf("reasons = %v, want a no-progress trigger", got)
	}
}

func TestMonitorStopsWithSession(t *testing.T) {
	e := sim.NewEngine(1)
	p, _ := newSession(e, 5e6, 10*time.Second)
	m := NewMonitor(e, p, nil, nil)
	if m.Player() != p {
		t.Error("Player accessor wrong")
	}
	e.Run(time.Minute)
	if !p.Done() {
		t.Fatal("session should finish")
	}
	// After completion the monitor's ticker self-cancels; another minute
	// of engine time must fire nothing (no immortal events).
	fired := e.Processed
	e.Run(2 * time.Minute)
	if left := e.Processed - fired; left != 0 {
		t.Errorf("%d events still firing after session end", left)
	}
}

func TestReasonStrings(t *testing.T) {
	if ReasonBuffering.String() != "buffering" || ReasonNoProgress.String() != "no-progress" {
		t.Error("reason strings wrong")
	}
	if Reason(42).String() != "unknown" {
		t.Error("unknown reason string wrong")
	}
}
