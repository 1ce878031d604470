package faults

import (
	"reflect"
	"testing"
	"time"

	"eona/internal/netsim"
	"eona/internal/sim"
)

func sweepConfig(seed int64) Config {
	return Config{
		Seed:    seed,
		Horizon: 4 * time.Hour,
		Links: []LinkFaultConfig{
			{Link: "access", Count: 3, Duration: 10 * time.Minute, Factor: 0.1},
			{Link: "peering-B", Count: 2, Duration: 5 * time.Minute, Factor: 0},
		},
		Partner: PartnerFaultConfig{
			OutageAt: time.Hour, OutageLen: 30 * time.Minute,
			ErrorBursts: 2, BurstLen: 4 * time.Minute,
			LatencySpikes: 2, SpikeLen: 6 * time.Minute, SpikeExtra: 200 * time.Millisecond,
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(sweepConfig(7)), Generate(sweepConfig(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%+v\n%+v", a, b)
	}
	c := Generate(sweepConfig(8))
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical plans")
	}
}

func TestGenerateWindowsWellFormed(t *testing.T) {
	p := Generate(sweepConfig(3))
	horizon := 4 * time.Hour
	perLink := map[string][]Window{}
	for _, f := range p.LinkFaults {
		if f.Start < 0 || f.End > horizon || f.End <= f.Start {
			t.Errorf("malformed fault window %+v", f)
		}
		perLink[f.Link] = append(perLink[f.Link], f.Window)
	}
	for link, ws := range perLink {
		for i := 1; i < len(ws); i++ {
			if ws[i].Start < ws[i-1].End {
				t.Errorf("link %s faults overlap: %+v then %+v", link, ws[i-1], ws[i])
			}
		}
	}
	if len(p.PartnerOutages) != 1 || p.PartnerOutages[0].Duration() != 30*time.Minute {
		t.Errorf("outages = %+v", p.PartnerOutages)
	}
	if len(p.ErrorBursts) != 2 || len(p.LatencySpikes) != 2 {
		t.Errorf("bursts = %+v spikes = %+v", p.ErrorBursts, p.LatencySpikes)
	}
}

func TestGeneratePinnedFault(t *testing.T) {
	p := Generate(Config{
		Seed:    1,
		Horizon: time.Hour,
		Links:   []LinkFaultConfig{{Link: "access", At: 10 * time.Minute, Duration: 5 * time.Minute, Factor: 0.5}},
	})
	want := Window{Start: 10 * time.Minute, End: 15 * time.Minute}
	if len(p.LinkFaults) != 1 || p.LinkFaults[0].Window != want {
		t.Fatalf("pinned fault = %+v, want window %+v", p.LinkFaults, want)
	}
}

func TestPartnerPredicates(t *testing.T) {
	p := &Plan{
		PartnerOutages: []Window{{Start: 10 * time.Minute, End: 20 * time.Minute}},
		ErrorBursts:    []Window{{Start: 30 * time.Minute, End: 31 * time.Minute}},
		LatencySpikes:  []LatencySpike{{Window: Window{Start: 40 * time.Minute, End: 41 * time.Minute}, Extra: time.Second}},
	}
	if !p.PartnerUp(9*time.Minute) || p.PartnerUp(10*time.Minute) || p.PartnerUp(19*time.Minute+59*time.Second) || !p.PartnerUp(20*time.Minute) {
		t.Error("outage window edges wrong (half-open [start,end) expected)")
	}
	if p.PartnerErrored(29*time.Minute) || !p.PartnerErrored(30*time.Minute) {
		t.Error("error burst window wrong")
	}
	if p.PartnerDelay(40*time.Minute+30*time.Second) != time.Second || p.PartnerDelay(42*time.Minute) != 0 {
		t.Error("latency spike wrong")
	}
	var nilPlan *Plan
	if !nilPlan.PartnerUp(0) || nilPlan.PartnerErrored(0) || nilPlan.PartnerDelay(0) != 0 {
		t.Error("nil plan must be the empty plan")
	}
}

// Schedule applies each fault instant as one batched reallocation, and
// restores base capacity afterwards.
func TestScheduleAppliesAndRestores(t *testing.T) {
	topo := netsim.NewTopology()
	a := topo.AddLink("src", "mid", 100e6, time.Millisecond, "a")
	b := topo.AddLink("mid", "dst", 100e6, time.Millisecond, "b")
	net := netsim.NewNetwork(topo)
	net.StartFlow(netsim.Path{a, b}, 90e6, "t")
	eng := sim.NewEngine(1)

	p := &Plan{LinkFaults: []LinkFault{
		// Two faults starting at the same instant: one event, one batch.
		{Link: "a", Window: Window{Start: 10 * time.Second, End: 20 * time.Second}, Factor: 0.1},
		{Link: "b", Window: Window{Start: 10 * time.Second, End: 30 * time.Second}, Factor: 0},
	}}
	targets := map[string]Target{
		"a": {ID: a.ID, BaseBps: 100e6},
		"b": {ID: b.ID, BaseBps: 100e6},
	}
	if err := p.Schedule(eng, net, targets); err != nil {
		t.Fatal(err)
	}

	before := net.Stats().Reallocations
	eng.Run(15 * time.Second)
	if a.Capacity != 10e6 {
		t.Errorf("link a capacity during fault = %v, want 10e6", a.Capacity)
	}
	if b.Capacity != 1 {
		t.Errorf("link b capacity during outage = %v, want floor 1", b.Capacity)
	}
	if got := net.Stats().Reallocations - before; got != 1 {
		t.Errorf("same-instant faults cost %d reallocations, want 1 (batched)", got)
	}

	eng.Run(time.Minute)
	if a.Capacity != 100e6 || b.Capacity != 100e6 {
		t.Errorf("capacities not restored: a=%v b=%v", a.Capacity, b.Capacity)
	}
}

func TestScheduleUnknownLink(t *testing.T) {
	topo := netsim.NewTopology()
	topo.AddLink("x", "y", 1e6, 0, "xy")
	net := netsim.NewNetwork(topo)
	p := &Plan{LinkFaults: []LinkFault{{Link: "nope", Window: Window{Start: 1, End: 2}, Factor: 0.5}}}
	if err := p.Schedule(sim.NewEngine(1), net, map[string]Target{}); err == nil {
		t.Fatal("unknown link name accepted")
	}
}

func TestScheduleNilPlan(t *testing.T) {
	var p *Plan
	if err := p.Schedule(sim.NewEngine(1), nil, nil); err != nil {
		t.Fatal(err)
	}
}

// ScheduleDriver routes the same fault schedule through a netsim.Driver on
// a deterministic SharedNetwork, committed once per instant by the
// ParallelEngine barrier — and lands the network in the same final state as
// the direct Schedule path.
func TestScheduleDriverMatchesSchedule(t *testing.T) {
	build := func() (*netsim.Topology, *netsim.Link, *netsim.Link) {
		topo := netsim.NewTopology()
		a := topo.AddLink("src", "mid", 100e6, time.Millisecond, "a")
		b := topo.AddLink("mid", "dst", 100e6, time.Millisecond, "b")
		return topo, a, b
	}
	plan := &Plan{LinkFaults: []LinkFault{
		{Link: "a", Window: Window{Start: 10 * time.Second, End: 20 * time.Second}, Factor: 0.1},
		{Link: "b", Window: Window{Start: 10 * time.Second, End: 30 * time.Second}, Factor: 0},
	}}

	// Reference: direct Schedule on a plain network, stopped mid-fault so
	// the degraded state is what we compare.
	topo1, a1, b1 := build()
	net1 := netsim.NewNetwork(topo1)
	eng1 := sim.NewEngine(1)
	targets1 := map[string]Target{"a": {ID: a1.ID, BaseBps: 100e6}, "b": {ID: b1.ID, BaseBps: 100e6}}
	if err := plan.Schedule(eng1, net1, targets1); err != nil {
		t.Fatal(err)
	}
	eng1.Run(15 * time.Second)

	// Driver path: deterministic SharedNetwork, ops buffered per instant,
	// committed by the parallel engine's barrier.
	topo2, a2, b2 := build()
	shared := netsim.NewShared(netsim.NewNetwork(topo2), netsim.SharedConfig{Deterministic: true})
	drv := shared.Driver(1)
	pe := sim.NewParallel(1, 1, 1)
	targets2 := map[string]Target{"a": {ID: a2.ID, BaseBps: 100e6}, "b": {ID: b2.ID, BaseBps: 100e6}}
	if err := plan.ScheduleDriver(pe.Partition(0), drv, targets2); err != nil {
		t.Fatal(err)
	}
	pe.OnInstantEnd(func(*sim.ParallelEngine) { shared.Commit() })
	pe.Run(15 * time.Second)
	shared.Close()

	if a2.Capacity != a1.Capacity || b2.Capacity != b1.Capacity {
		t.Errorf("driver path capacities (a=%v b=%v) differ from direct (a=%v b=%v)",
			a2.Capacity, b2.Capacity, a1.Capacity, b1.Capacity)
	}
	if a2.Capacity != 10e6 || b2.Capacity != 1 {
		t.Errorf("mid-fault capacities a=%v b=%v, want 10e6 and floor 1", a2.Capacity, b2.Capacity)
	}
}

func TestScheduleDriverUnknownLink(t *testing.T) {
	shared := netsim.NewShared(netsim.NewNetwork(netsim.NewTopology()), netsim.SharedConfig{})
	defer shared.Close()
	p := &Plan{LinkFaults: []LinkFault{{Link: "nope", Window: Window{Start: 1, End: 2}, Factor: 0.5}}}
	if err := p.ScheduleDriver(sim.NewEngine(1), shared.Driver(1), map[string]Target{}); err == nil {
		t.Fatal("unknown link name accepted")
	}
}
