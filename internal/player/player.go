package player

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eona/internal/netsim"
	"eona/internal/qoe"
	"eona/internal/sim"
)

// Conn is the player's view of a network connection to one server. The
// controllers swap Conns underneath the player when they switch servers or
// CDNs.
type Conn interface {
	// Rate returns the currently allocated download rate in bits/s.
	Rate() float64
	// SetDemand sets the requested rate ceiling in bits/s (use
	// math.Inf(1) for greedy, 0 to pause).
	SetDemand(bps float64)
	// Close releases the connection's resources.
	Close()
}

// Batcher is implemented by Conns whose backing network can coalesce
// several mutations into a single fair-share reallocation (netsim's
// Network.Batch). The player uses it to make connection swaps — close old,
// attach new, reset demand — one reallocation instead of several.
type Batcher interface {
	Batch(func())
}

// batch runs fn under the conn's Batcher if it has one, else directly.
func batch(c Conn, fn func()) {
	if b, ok := c.(Batcher); ok {
		b.Batch(fn)
		return
	}
	fn()
}

// FlowConn adapts a netsim flow to the Conn interface.
type FlowConn struct {
	Net  *netsim.Network
	Flow *netsim.Flow
	// OnClose, if set, runs once when the connection closes (used to
	// release CDN server slots).
	OnClose func()

	closed bool
}

// Rate implements Conn.
func (c *FlowConn) Rate() float64 {
	if c.closed {
		return 0
	}
	return c.Flow.Rate
}

// SetDemand implements Conn.
func (c *FlowConn) SetDemand(bps float64) {
	if c.closed {
		return
	}
	c.Net.SetDemand(c.Flow, bps)
}

// Close implements Conn.
func (c *FlowConn) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.Net.StopFlow(c.Flow)
	if c.OnClose != nil {
		c.OnClose()
	}
}

// Batch implements Batcher by deferring the network's reallocation across a
// cluster of mutations.
func (c *FlowConn) Batch(fn func()) { c.Net.Batch(fn) }

// SwitchKind labels a Redirect for metric accounting.
type SwitchKind int

const (
	// SwitchServer is an intra-CDN server change (cheap, I2A-hinted).
	SwitchServer SwitchKind = iota
	// SwitchCDN is a whole-CDN change (the coarse knob of §2).
	SwitchCDN
)

// Config parameterizes a player. Zero fields take the documented defaults.
type Config struct {
	// Ladder is the ascending bitrate ladder in bits/s. Required.
	Ladder []float64
	// BufferTarget is where downloading pauses. Default 30s.
	BufferTarget time.Duration
	// AdaptEvery is how often the ABR runs. Default 2s.
	AdaptEvery time.Duration
	// EMAAlpha smooths throughput samples. Default 0.25.
	EMAAlpha float64
	// ABR chooses rungs. Default RateBased{Safety: 0.85}.
	ABR ABR
}

func (c *Config) applyDefaults() {
	if len(c.Ladder) == 0 {
		panic("player: Config.Ladder is required")
	}
	if !sort.Float64sAreSorted(c.Ladder) {
		panic(fmt.Sprintf("player: ladder must ascend: %v", c.Ladder))
	}
	if c.BufferTarget == 0 {
		c.BufferTarget = 30 * time.Second
	}
	if c.AdaptEvery == 0 {
		c.AdaptEvery = 2 * time.Second
	}
	if c.EMAAlpha == 0 {
		c.EMAAlpha = 0.25
	}
	if c.ABR == nil {
		c.ABR = RateBased{Safety: 0.85}
	}
}

const (
	// tickStep is the integration step.
	tickStep = 500 * time.Millisecond
	// startupBuffer is the content needed before playback starts.
	startupBuffer = 2 * time.Second
	// stallResume is the content needed to resume after a stall.
	stallResume = 2 * time.Second
)

type phase int

const (
	phaseStarting phase = iota
	phasePlaying
	phaseStalled
	phaseDone
)

// bufSeg is a run of buffered content downloaded at one rung. The buffer is
// a FIFO of these so that played seconds are charged to the bitrate the
// content was *actually fetched at*, not the rung currently downloading.
type bufSeg struct {
	dur     time.Duration
	bitrate float64
}

// Player is one adaptive streaming session.
type Player struct {
	cfg      Config
	engine   *sim.Engine
	conn     Conn
	intended time.Duration

	phase       phase
	buffer      time.Duration // total seconds of content ahead of playhead
	bufQ        []bufSeg      // FIFO of buffered content runs
	bitrate     float64
	downloading bool
	penalty     time.Duration // time before download (re)starts
	played      time.Duration
	weightedBr  float64 // ∫ bitrate d(played), for the average
	emaRate     float64
	sinceAdapt  time.Duration

	metrics  qoe.SessionMetrics
	stopTick func()

	// OverrideABR, when non-nil, replaces the configured ABR — the hook
	// the EONA AppP controller uses to cap bitrate under I2A congestion
	// signals without restarting the player.
	OverrideABR ABR
}

// New creates a player for a session of the given content duration. Start
// must be called to begin.
func New(engine *sim.Engine, cfg Config, contentDuration time.Duration) *Player {
	cfg.applyDefaults()
	if contentDuration <= 0 {
		panic("player: content duration must be positive")
	}
	return &Player{
		cfg:      cfg,
		engine:   engine,
		intended: contentDuration,
		bitrate:  cfg.Ladder[0], // sessions start at the lowest rung
	}
}

// Start attaches the first connection and begins the session. penalty is
// the connection setup + cache-miss delay before bytes flow.
func (p *Player) Start(conn Conn, penalty time.Duration) {
	if p.conn != nil {
		panic("player: Start called twice")
	}
	p.conn = conn
	p.penalty = penalty
	p.downloading = false
	conn.SetDemand(0)
	p.stopTick = p.engine.Every(tickStep, p.tick)
}

// Redirect swaps the connection (server or CDN switch). The buffer is
// retained — playback continues from it while the new connection spends
// penalty time in setup. kind determines which switch counter increments.
func (p *Player) Redirect(conn Conn, penalty time.Duration, kind SwitchKind) {
	if p.phase == phaseDone {
		conn.Close()
		return
	}
	// One reallocation for the whole swap: stop the old flow and park
	// the new one together.
	batch(conn, func() {
		if p.conn != nil {
			p.conn.Close()
		}
		conn.SetDemand(0)
	})
	p.conn = conn
	p.penalty = penalty
	p.downloading = false
	switch kind {
	case SwitchServer:
		p.metrics.ServerSwitches++
	case SwitchCDN:
		p.metrics.CDNSwitches++
		// A CDN switch restarts adaptation conservatively: back to
		// the lowest rung, throughput estimate reset.
		p.bitrate = p.cfg.Ladder[0]
		p.emaRate = 0
	}
}

// Buffer returns seconds of buffered content.
func (p *Player) Buffer() time.Duration { return p.buffer }

// Bitrate returns the rung currently being downloaded.
func (p *Player) Bitrate() float64 { return p.bitrate }

// Stalled reports whether playback is currently stalled (after startup).
func (p *Player) Stalled() bool { return p.phase == phaseStalled }

// Done reports whether the session has finished.
func (p *Player) Done() bool { return p.phase == phaseDone }

// ThroughputEMA returns the smoothed observed download rate.
func (p *Player) ThroughputEMA() float64 { return p.emaRate }

// Metrics returns a snapshot of the session metrics so far.
func (p *Player) Metrics() qoe.SessionMetrics {
	m := p.metrics
	if p.played > 0 {
		m.AvgBitrate = p.weightedBr / p.played.Seconds()
	}
	m.PlayTime = p.played
	return m
}

func (p *Player) finish() {
	p.phase = phaseDone
	if p.stopTick != nil {
		p.stopTick()
	}
	if p.conn != nil {
		p.conn.Close()
		p.conn = nil
	}
}

// drainQueue consumes d of buffered content FIFO and returns the bitrate ×
// seconds actually played (for the true average played bitrate).
func (p *Player) drainQueue(d time.Duration) float64 {
	var weighted float64
	for d > 0 && len(p.bufQ) > 0 {
		seg := &p.bufQ[0]
		take := seg.dur
		if take > d {
			take = d
		}
		weighted += seg.bitrate * take.Seconds()
		seg.dur -= take
		d -= take
		if seg.dur <= 0 {
			p.bufQ = p.bufQ[1:]
		}
	}
	// Numerical slack between the scalar total and the queue: charge the
	// current rung for any remainder.
	if d > 0 {
		weighted += p.bitrate * d.Seconds()
	}
	return weighted
}

func (p *Player) tick(*sim.Engine) bool {
	if p.phase == phaseDone {
		return false
	}
	dt := tickStep

	// 1. Connection setup / origin-fetch penalty gates downloading.
	if p.penalty > 0 {
		if p.penalty >= dt {
			p.penalty -= dt
		} else {
			p.penalty = 0
		}
	}

	// 2. Download gating with hysteresis around the buffer target.
	canDownload := p.penalty == 0
	if canDownload {
		if p.downloading && p.buffer >= p.cfg.BufferTarget {
			canDownload = false
		}
		if !p.downloading && p.buffer >= p.cfg.BufferTarget-4*time.Second && p.buffer >= startupBuffer {
			canDownload = false
		}
	}
	if canDownload != p.downloading {
		p.downloading = canDownload
		if canDownload {
			p.conn.SetDemand(math.Inf(1))
		} else {
			p.conn.SetDemand(0)
		}
	}

	// 3. Integrate the download. The fill is clamped to the buffer
	// target: a player never fetches ahead of its buffer plan, no
	// matter how fast the link is (on very fast links the tick becomes
	// a partial ON-period).
	if p.downloading {
		rate := p.conn.Rate()
		if rate > 0 {
			fill := time.Duration(rate * dt.Seconds() / p.bitrate * float64(time.Second))
			if room := p.cfg.BufferTarget - p.buffer; fill > room {
				fill = room
			}
			if fill > 0 {
				p.buffer += fill
				if n := len(p.bufQ); n > 0 && p.bufQ[n-1].bitrate == p.bitrate {
					p.bufQ[n-1].dur += fill
				} else {
					p.bufQ = append(p.bufQ, bufSeg{dur: fill, bitrate: p.bitrate})
				}
			}
		}
		if p.emaRate == 0 {
			p.emaRate = rate
		} else {
			p.emaRate = p.cfg.EMAAlpha*rate + (1-p.cfg.EMAAlpha)*p.emaRate
		}
	}

	// 4. Playback state machine.
	switch p.phase {
	case phaseStarting:
		p.metrics.StartupDelay += dt
		if p.buffer >= startupBuffer {
			p.phase = phasePlaying
		}
	case phasePlaying:
		drain := dt
		if p.buffer < drain {
			drain = p.buffer
		}
		if remaining := p.intended - p.played; drain > remaining {
			drain = remaining
		}
		p.buffer -= drain
		p.played += drain
		p.weightedBr += p.drainQueue(drain)
		if p.played >= p.intended {
			p.finish()
			return false
		}
		if drain < dt {
			p.metrics.BufferingTime += dt - drain
			p.phase = phaseStalled
		}
	case phaseStalled:
		p.metrics.BufferingTime += dt
		if p.buffer >= stallResume {
			p.phase = phasePlaying
		}
	}

	// 5. Periodic adaptation.
	p.sinceAdapt += dt
	if p.sinceAdapt >= p.cfg.AdaptEvery {
		p.sinceAdapt = 0
		abr := p.cfg.ABR
		if p.OverrideABR != nil {
			abr = p.OverrideABR
		}
		next := abr.Next(State{
			Buffer:        p.buffer,
			ThroughputEMA: p.emaRate,
			Ladder:        p.cfg.Ladder,
		})
		if next != p.bitrate {
			p.metrics.BitrateSwitches++
			p.bitrate = next
		}
	}
	return true
}
