package player

import (
	"math"
	"testing"
	"time"

	"eona/internal/netsim"
	"eona/internal/sim"
)

// stubConn is a connection with a scriptable rate.
type stubConn struct {
	rate    float64
	demand  float64
	closed  bool
	closeCt int
}

func (c *stubConn) Rate() float64 {
	if c.demand == 0 {
		return 0
	}
	return math.Min(c.rate, c.demand)
}
func (c *stubConn) SetDemand(bps float64) { c.demand = bps }
func (c *stubConn) Close()                { c.closed = true; c.closeCt++ }

func ladder() []float64 { return []float64{300e3, 1e6, 3e6} }

func newTestPlayer(t *testing.T, e *sim.Engine, abr ABR, content time.Duration) *Player {
	t.Helper()
	return New(e, Config{Ladder: ladder(), ABR: abr}, content)
}

func TestHappyPathCompletes(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{1e6}, 30*time.Second)
	conn := &stubConn{rate: 5e6} // 5 Mbps for a ≤3 Mbps ladder: plenty
	p.Start(conn, 0)
	e.Run(5 * time.Minute)
	if !p.Done() {
		t.Fatal("session did not complete")
	}
	m := p.Metrics()
	if m.BufferingRatio() != 0 {
		t.Errorf("buffering ratio = %v, want 0", m.BufferingRatio())
	}
	if m.PlayTime != 30*time.Second {
		t.Errorf("play time = %v, want 30s", m.PlayTime)
	}
	if m.Abandoned {
		t.Error("completed session marked abandoned")
	}
	if !conn.closed {
		t.Error("connection not closed at completion")
	}
}

// fixed always picks the same rung.
type fixed struct{ Bitrate float64 }

func (f fixed) Next(State) float64 { return f.Bitrate }

func TestStartupDelayAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{1e6}, 10*time.Second)
	// Sessions begin at the lowest rung (300 kbps); at a 300 kbps link
	// rate, the 2s startup buffer takes 2s to fill.
	conn := &stubConn{rate: 300e3}
	p.Start(conn, 0)
	e.Run(3 * time.Second)
	m := p.Metrics()
	if m.StartupDelay < 1500*time.Millisecond || m.StartupDelay > 3*time.Second {
		t.Errorf("startup delay = %v, want ≈2s", m.StartupDelay)
	}
}

func TestPenaltyDelaysStartup(t *testing.T) {
	run := func(penalty time.Duration) time.Duration {
		e := sim.NewEngine(1)
		p := newTestPlayer(t, e, fixed{1e6}, 10*time.Second)
		p.Start(&stubConn{rate: 10e6}, penalty)
		e.Run(time.Minute)
		return p.Metrics().StartupDelay
	}
	fast, slow := run(0), run(5*time.Second)
	if slow < fast+4*time.Second {
		t.Errorf("penalty not reflected: fast=%v slow=%v", fast, slow)
	}
}

func TestStallWhenRateDrops(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{1e6}, time.Minute)
	conn := &stubConn{rate: 2e6}
	p.Start(conn, 0)
	// After 10s, cut the network to a tenth of the bitrate.
	e.Schedule(10*time.Second, func(*sim.Engine) { conn.rate = 1e5 })
	e.Run(50 * time.Second)
	m := p.Metrics()
	if m.BufferingTime == 0 {
		t.Error("no buffering recorded despite starvation")
	}
	if !p.Stalled() {
		t.Error("player should be stalled at horizon")
	}
}

func TestStallRecovers(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{1e6}, time.Minute)
	// 1 Mbps link matches the 1 Mbps rung, so the buffer stays small and
	// the mid-session outage produces a visible stall.
	conn := &stubConn{rate: 1e6}
	p.Start(conn, 0)
	e.Schedule(10*time.Second, func(*sim.Engine) { conn.rate = 1e4 })
	e.Schedule(25*time.Second, func(*sim.Engine) { conn.rate = 2e6 })
	e.Run(2 * time.Minute)
	m := p.Metrics()
	if m.BufferingTime < 5*time.Second {
		t.Errorf("buffering = %v, want ≥5s stall", m.BufferingTime)
	}
	if m.PlayTime != time.Minute {
		t.Errorf("play time = %v, want full minute", m.PlayTime)
	}
}

func TestBufferCapsAtTarget(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{300e3}, 10*time.Minute)
	conn := &stubConn{rate: 100e6} // absurdly fast
	p.Start(conn, 0)
	e.Run(2 * time.Minute)
	// The fill clamp pins the buffer at the 30s target exactly; the
	// player then duty-cycles (pause at target, refill below target−4s).
	if p.Buffer() > 30*time.Second {
		t.Errorf("buffer = %v, should never exceed the 30s target", p.Buffer())
	}
	if p.Buffer() < 20*time.Second {
		t.Errorf("buffer = %v, should hover near the target on an idle link", p.Buffer())
	}
}

func TestRateBasedABRAdapts(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, RateBased{Safety: 0.85}, 2*time.Minute)
	conn := &stubConn{rate: 5e6}
	p.Start(conn, 0)
	e.Run(30 * time.Second)
	if p.Bitrate() != 3e6 {
		t.Errorf("bitrate with 5 Mbps throughput = %v, want top rung 3e6", p.Bitrate())
	}
	m := p.Metrics()
	if m.BitrateSwitches == 0 {
		t.Error("no upswitch recorded")
	}
}

func TestCappedABRRespectsSignal(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, RateBased{Safety: 0.85}, 2*time.Minute)
	conn := &stubConn{rate: 10e6}
	p.Start(conn, 0)
	e.Run(20 * time.Second)
	if p.Bitrate() != 3e6 {
		t.Fatalf("precondition: bitrate = %v, want 3e6", p.Bitrate())
	}
	// EONA congestion signal: cap at 1 Mbps.
	p.OverrideABR = Capped{Inner: RateBased{Safety: 0.85}, Cap: 1e6}
	e.Run(40 * time.Second)
	if p.Bitrate() != 1e6 {
		t.Errorf("capped bitrate = %v, want 1e6", p.Bitrate())
	}
	// Removing the override restores full adaptation.
	p.OverrideABR = nil
	e.Run(60 * time.Second)
	if p.Bitrate() != 3e6 {
		t.Errorf("restored bitrate = %v, want 3e6", p.Bitrate())
	}
}

func TestRedirectAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{1e6}, time.Minute)
	c1 := &stubConn{rate: 2e6}
	p.Start(c1, 0)
	e.Run(10 * time.Second)
	c2 := &stubConn{rate: 2e6}
	p.Redirect(c2, time.Second, SwitchServer)
	e.Run(20 * time.Second)
	c3 := &stubConn{rate: 2e6}
	p.Redirect(c3, time.Second, SwitchCDN)
	e.Run(70 * time.Second)
	m := p.Metrics()
	if m.ServerSwitches != 1 || m.CDNSwitches != 1 {
		t.Errorf("switches = %d server / %d CDN, want 1/1", m.ServerSwitches, m.CDNSwitches)
	}
	if !c1.closed || !c2.closed {
		t.Error("old connections not closed on redirect")
	}
}

func TestRedirectCDNResetsAdaptation(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, RateBased{Safety: 0.85}, 5*time.Minute)
	p.Start(&stubConn{rate: 10e6}, 0)
	e.Run(20 * time.Second)
	if p.Bitrate() != 3e6 {
		t.Fatalf("precondition failed: bitrate %v", p.Bitrate())
	}
	p.Redirect(&stubConn{rate: 10e6}, time.Second, SwitchCDN)
	if p.Bitrate() != 300e3 {
		t.Errorf("bitrate after CDN switch = %v, want lowest rung", p.Bitrate())
	}
	if p.ThroughputEMA() != 0 {
		t.Error("throughput estimate not reset on CDN switch")
	}
}

func TestRedirectAfterDoneClosesConn(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{300e3}, 5*time.Second)
	p.Start(&stubConn{rate: 10e6}, 0)
	e.Run(time.Minute)
	if !p.Done() {
		t.Fatal("session should be done")
	}
	late := &stubConn{rate: 1e6}
	p.Redirect(late, 0, SwitchServer)
	if !late.closed {
		t.Error("redirect after done should close the new conn")
	}
}

func TestAvgBitrateWeighting(t *testing.T) {
	e := sim.NewEngine(1)
	p := newTestPlayer(t, e, fixed{1e6}, time.Minute)
	p.Start(&stubConn{rate: 10e6}, 0)
	e.Run(2 * time.Minute)
	m := p.Metrics()
	// Played bitrate is charged FIFO at the rung each second of content
	// was fetched at: on this fast link the player prefetches its whole
	// 30s buffer target at the initial lowest rung before the first ABR
	// decision, so roughly half the 60s session plays 300 kbps content
	// and the rest plays 1 Mbps.
	if m.AvgBitrate < 0.55e6 || m.AvgBitrate > 1e6 {
		t.Errorf("avg bitrate = %v, want in [0.55e6, 1e6]", m.AvgBitrate)
	}
}

func TestFlowConnIntegration(t *testing.T) {
	topo := netsim.NewTopology()
	l := topo.AddLink("c", "s", 4e6, time.Millisecond, "")
	net := netsim.NewNetwork(topo)
	e := sim.NewEngine(1)
	released := false
	flow := net.StartFlow(netsim.Path{l}, 0, "session")
	conn := &FlowConn{Net: net, Flow: flow, OnClose: func() { released = true }}
	p := newTestPlayer(t, e, RateBased{Safety: 0.85}, 20*time.Second)
	p.Start(conn, 0)
	e.Run(5 * time.Minute)
	if !p.Done() {
		t.Fatal("session over netsim did not complete")
	}
	if !released {
		t.Error("OnClose not invoked")
	}
	if net.NumFlows() != 0 {
		t.Errorf("flows remaining = %d, want 0", net.NumFlows())
	}
	m := p.Metrics()
	if m.BufferingRatio() > 0.01 {
		t.Errorf("buffering over ample link = %v", m.BufferingRatio())
	}
	// Double close is safe.
	conn.Close()
}

func TestFlowConnClosedOps(t *testing.T) {
	topo := netsim.NewTopology()
	l := topo.AddLink("c", "s", 4e6, time.Millisecond, "")
	net := netsim.NewNetwork(topo)
	flow := net.StartFlow(netsim.Path{l}, 1e6, "")
	conn := &FlowConn{Net: net, Flow: flow}
	conn.Close()
	if conn.Rate() != 0 {
		t.Error("closed conn reports nonzero rate")
	}
	conn.SetDemand(5e6) // must not panic or resurrect the flow
	if net.NumFlows() != 0 {
		t.Error("SetDemand on closed conn resurrected flow")
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine(1)
	cases := []func(){
		func() { New(e, Config{}, time.Minute) },
		func() { New(e, Config{Ladder: []float64{3e6, 1e6}}, time.Minute) },
		func() { New(e, Config{Ladder: ladder()}, 0) },
		func() {
			p := New(e, Config{Ladder: ladder()}, time.Minute)
			p.Start(&stubConn{}, 0)
			p.Start(&stubConn{}, 0)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestSharedBottleneckFairness(t *testing.T) {
	// Two players share a 3 Mbps link; each should settle near 1.5 Mbps
	// and pick the 1 Mbps rung (0.85 safety), not stall.
	topo := netsim.NewTopology()
	l := topo.AddLink("c", "s", 3e6, time.Millisecond, "")
	net := netsim.NewNetwork(topo)
	e := sim.NewEngine(1)
	mk := func() *Player {
		flow := net.StartFlow(netsim.Path{l}, 0, "")
		p := newTestPlayer(t, e, RateBased{Safety: 0.85}, time.Minute)
		p.Start(&FlowConn{Net: net, Flow: flow}, 0)
		return p
	}
	p1, p2 := mk(), mk()
	e.Run(90 * time.Second)
	for i, p := range []*Player{p1, p2} {
		m := p.Metrics()
		if m.BufferingRatio() > 0.05 {
			t.Errorf("player %d buffering ratio = %v", i, m.BufferingRatio())
		}
		if m.AvgBitrate > 1.6e6 {
			t.Errorf("player %d avg bitrate = %v, exceeds fair share", i, m.AvgBitrate)
		}
	}
}
