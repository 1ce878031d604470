// Package faults provides deterministic, seeded fault plans for the chaos
// experiments (E15) and for hardening tests of the partner exchange.
//
// A Plan is pure data: a set of link-capacity faults (flaps, partial
// degradations, outages) plus partner-exchange outage windows positioned on
// the simulation timeline.
// Plans come either from an explicit literal or from Generate, which
// places fault windows with a seeded RNG — the same seed always yields the
// same plan, so every chaos run is bit-for-bit reproducible.
//
// Link faults are applied to a netsim.Network through Schedule: each fault
// instant becomes one sim.Engine event that commits all of that instant's
// capacity changes inside a single netsim Batch, i.e. one reallocation per
// fault regardless of how many links it touches. Partner faults gate the
// simulated looking-glass exchange through PartnerUp. A running node's
// partner faults are control-plane impairments (ctlplane.Gate applies them
// to a real poller's fetches); WallClock is that node's fault timeline.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"eona/internal/netsim"
	"eona/internal/sim"
)

// Window is a half-open interval [Start, End) on the simulation clock.
type Window struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// Duration returns the window's length.
func (w Window) Duration() time.Duration { return w.End - w.Start }

// OpenEnd is the End of a window with no scheduled end: it lasts until the
// fault is cancelled.
const OpenEnd = time.Duration(math.MaxInt64)

// Open returns the window a fault of duration d opened at start covers:
// [start, start+d), or open-ended when d <= 0 or start+d would overflow. A
// running node's partner impairments are such windows on its WallClock.
func Open(start, d time.Duration) Window {
	if d > 0 && d <= OpenEnd-start {
		return Window{Start: start, End: start + d}
	}
	return Window{Start: start, End: OpenEnd}
}

// WallClock returns a clock mapping wall time to fault-timeline time, with
// t=0 at start: the timeline a running process positions its impairments on.
func WallClock(start time.Time) func() time.Duration {
	return func() time.Duration { return time.Since(start) }
}

// LinkFault degrades one named link for the duration of its window: the
// link's capacity becomes Factor × its base capacity at Start and is
// restored at End. Factor 0 models a full outage (capacity is floored at
// 1 bit/s because netsim requires positive capacities — flows stay routed
// and starve, which is what a dead link does to long-lived sessions).
type LinkFault struct {
	Link string
	Window
	Factor float64
}

// Plan is a fully materialized fault schedule. The zero value (and a nil
// *Plan) is the empty plan: no faults, partner always up.
type Plan struct {
	// LinkFaults are capacity faults, sorted by Start.
	LinkFaults []LinkFault
	// PartnerOutages are windows during which the partner exchange is
	// entirely down (fetches fail, stores are not refreshed).
	PartnerOutages []Window
}

// PartnerUp reports whether the partner exchange is reachable at t. A nil
// plan is always up.
func (p *Plan) PartnerUp(t time.Duration) bool {
	if p == nil {
		return true
	}
	for _, w := range p.PartnerOutages {
		if w.Contains(t) {
			return false
		}
	}
	return true
}

// Target binds a plan link name to a simulated link and its healthy
// capacity.
type Target struct {
	ID      netsim.LinkID
	BaseBps float64
}

// linkChange is one resolved capacity edit: set link id to bps.
type linkChange struct {
	id  netsim.LinkID
	bps float64
}

// linkInstants resolves the plan's link faults against targets and groups
// the capacity changes by instant (a fault's Start and End are each an
// instant, possibly shared by several faults). Instants come back sorted.
// Unknown link names are an error: a plan that names links the scenario
// does not have is a configuration bug, not a fault to inject.
func (p *Plan) linkInstants(targets map[string]Target) ([]time.Duration, map[time.Duration][]linkChange, error) {
	at := map[time.Duration][]linkChange{}
	for _, f := range p.LinkFaults {
		tgt, ok := targets[f.Link]
		if !ok {
			return nil, nil, fmt.Errorf("faults: plan names unknown link %q", f.Link)
		}
		degraded := tgt.BaseBps * f.Factor
		if degraded < 1 {
			degraded = 1 // netsim requires positive capacity
		}
		at[f.Start] = append(at[f.Start], linkChange{tgt.ID, degraded})
		at[f.End] = append(at[f.End], linkChange{tgt.ID, tgt.BaseBps})
	}
	instants := make([]time.Duration, 0, len(at))
	for t := range at {
		instants = append(instants, t)
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i] < instants[j] })
	return instants, at, nil
}

// Schedule installs the plan's link faults onto the engine. Every fault
// instant becomes one event whose capacity changes are committed in a
// single Batch — one reallocation per instant. Faults at or beyond the run
// horizon simply never fire.
func (p *Plan) Schedule(eng *sim.Engine, net *netsim.Network, targets map[string]Target) error {
	if p == nil {
		return nil
	}
	instants, at, err := p.linkInstants(targets)
	if err != nil {
		return err
	}
	for _, t := range instants {
		changes := at[t]
		eng.ScheduleAt(t, func(*sim.Engine) {
			net.Batch(func() {
				for _, c := range changes {
					net.SetLinkCapacity(c.id, c.bps)
				}
			})
		})
	}
	return nil
}

// CapacityChange is one resolved capacity edit of a fired fault instant,
// as recorded in an Event.
type CapacityChange struct {
	Link netsim.LinkID `json:"link"`
	Bps  float64       `json:"bps"`
}

// Event is one fired fault instant: every capacity edit the plan committed
// at At. A journal records these so a recovered run can audit which fault
// windows had already fired at the crash (the capacity edits themselves
// also land in the netsim op log, which is what recovery replays — the
// Event stream is the plan-level view).
type Event struct {
	At      time.Duration    `json:"at"`
	Changes []CapacityChange `json:"changes"`
}

// ScheduleDriver installs the plan's link faults onto the engine through a
// netsim.Driver instead of a bare Network — the fault-schedule partition of
// a multi-driver run. Each instant's capacity changes are stamped with the
// driver's (driver, seq) identity; under a deterministic-mode SharedNetwork
// they buffer until the per-instant barrier calls Commit, which applies the
// whole instant's ops in canonical order and publishes one snapshot — the
// multi-driver equivalent of Schedule's one-Batch-per-instant rule.
func (p *Plan) ScheduleDriver(eng *sim.Engine, drv *netsim.Driver, targets map[string]Target) error {
	if p == nil {
		return nil
	}
	instants, at, err := p.linkInstants(targets)
	if err != nil {
		return err
	}
	for _, t := range instants {
		changes := at[t]
		eng.ScheduleAt(t, func(*sim.Engine) {
			for _, c := range changes {
				drv.SetLinkCapacity(c.id, c.bps)
			}
		})
	}
	return nil
}

// LinkFaultConfig describes one link's fault process for Generate.
type LinkFaultConfig struct {
	// Link is the plan-level link name (resolved by Schedule's targets).
	Link string
	// Count is how many faults to place. When At is set, exactly one
	// fault starts there and Count is ignored.
	Count int
	// At pins a single fault's start time exactly (no jitter) when
	// positive. Sweeps that need a fault at a known instant use this;
	// chaos sweeps leave it zero and let the seed place Count faults.
	At time.Duration
	// Duration is each fault's length.
	Duration time.Duration
	// Factor is the capacity multiplier while faulted (0 = outage).
	Factor float64
}

// PartnerFaultConfig describes the partner-exchange fault process for
// Generate. The single outage window is pinned (OutageAt/OutageLen)
// because chaos sweeps vary its length as the independent variable.
type PartnerFaultConfig struct {
	OutageAt, OutageLen time.Duration
}

// Config parameterizes Generate.
type Config struct {
	Seed    int64
	Horizon time.Duration
	Links   []LinkFaultConfig
	Partner PartnerFaultConfig
}

// Generate materializes a Plan from a seeded config. Unpinned fault starts
// are placed by slotting: the horizon is divided into Count equal slots
// and each fault starts uniformly at random within its slot (clamped so it
// ends inside the slot), which guarantees same-link faults never overlap
// and keeps placement deterministic per seed.
func Generate(cfg Config) *Plan {
	if cfg.Horizon <= 0 {
		panic("faults: Generate requires a positive horizon")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Plan{}
	for _, lc := range cfg.Links {
		if lc.Duration <= 0 {
			panic(fmt.Sprintf("faults: non-positive fault duration for link %q", lc.Link))
		}
		if lc.At > 0 {
			p.LinkFaults = append(p.LinkFaults, LinkFault{
				Link:   lc.Link,
				Window: Window{Start: lc.At, End: lc.At + lc.Duration},
				Factor: lc.Factor,
			})
			continue
		}
		for _, w := range slotWindows(rng, cfg.Horizon, lc.Count, lc.Duration) {
			p.LinkFaults = append(p.LinkFaults, LinkFault{Link: lc.Link, Window: w, Factor: lc.Factor})
		}
	}
	sort.Slice(p.LinkFaults, func(i, j int) bool { return p.LinkFaults[i].Start < p.LinkFaults[j].Start })

	pc := cfg.Partner
	if pc.OutageLen > 0 {
		p.PartnerOutages = append(p.PartnerOutages, Window{Start: pc.OutageAt, End: pc.OutageAt + pc.OutageLen})
	}
	return p
}

// slotWindows places count non-overlapping windows of length dur: one per
// equal slot of the horizon, starting uniformly within the slot.
func slotWindows(rng *rand.Rand, horizon time.Duration, count int, dur time.Duration) []Window {
	if count <= 0 || dur <= 0 {
		return nil
	}
	slot := horizon / time.Duration(count)
	var out []Window
	for i := 0; i < count; i++ {
		base := time.Duration(i) * slot
		room := slot - dur
		if room < 0 {
			room = 0
		}
		start := base
		if room > 0 {
			start += time.Duration(rng.Int63n(int64(room)))
		}
		end := start + dur
		if end > base+slot {
			end = base + slot
		}
		out = append(out, Window{Start: start, End: end})
	}
	return out
}
