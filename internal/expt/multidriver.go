package expt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"eona/internal/control"
	"eona/internal/faults"
	"eona/internal/netsim"
	"eona/internal/sim"
	"eona/internal/workload"
)

// EngineArmTopology binds a topology to the multi-driver harness: candidate
// paths per region (regions cycle through the slice when there are more
// regions than entries) and the named links the fault schedule may flap.
type EngineArmTopology struct {
	Topo        *netsim.Topology
	RegionPaths [][]netsim.Path
	FaultTarget map[string]faults.Target
}

// EngineArmConfig parameterizes RunEngineArm, the multi-driver engine
// scenario: per-region session arrivals (internal/workload), per-session
// flow monitors (internal/control), and a fault schedule (internal/faults),
// each owning a sim partition and a netsim Driver.
type EngineArmConfig struct {
	Seed    int64
	Regions int
	// Workers is the engine's goroutine count. It must never change the
	// result — only wall-clock. 0 means GOMAXPROCS.
	Workers int
	Horizon time.Duration
	// ArrivalRate is each region's Poisson session arrival rate (sessions/s).
	ArrivalRate float64
	// SessionDemand is a new session's demand in bits/s.
	SessionDemand float64
	// SessionLife bounds a session's lifetime: uniform in
	// [SessionLife/2, 3·SessionLife/2), drawn from the region's seeded rng.
	SessionLife time.Duration
	// MonitorEvery is the per-session FlowMonitor period.
	MonitorEvery time.Duration
	// Plan, when non-nil, is scheduled on its own fault partition through
	// its own Driver.
	Plan *faults.Plan
	// Build constructs the topology; it runs once per arm so repeated runs
	// never share mutable state.
	Build func() EngineArmTopology
}

func (c *EngineArmConfig) applyDefaults() {
	if c.Regions <= 0 {
		c.Regions = 4
	}
	if c.Horizon <= 0 {
		c.Horizon = 2 * time.Minute
	}
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 0.5
	}
	if c.SessionDemand == 0 {
		c.SessionDemand = 4e6
	}
	if c.SessionLife == 0 {
		c.SessionLife = 40 * time.Second
	}
	if c.MonitorEvery == 0 {
		c.MonitorEvery = 4 * time.Second
	}
}

// EngineArmResult summarizes one multi-driver run. Digest fingerprints the
// committed op log plus the final link rates and capacities; two runs with
// equal digests applied bit-identical mutations in bit-identical order and
// landed on bit-identical networks — the property the worker-count
// differential tests pin.
type EngineArmResult struct {
	Regions, Workers                 int
	SessionsStarted, SessionsStopped int
	MonitorTriggers                  int
	Processed, Instants              uint64
	Ops                              int
	FinalClock                       time.Duration
	Digest                           uint64
	Elapsed                          time.Duration
	EventsPerSec                     float64
}

// RunEngineArm runs the multi-driver engine scenario: Regions partitions of
// session arrivals + monitors, one fault partition, all mutating a
// deterministic SharedNetwork through per-partition Drivers, with the
// engine's per-instant barrier calling Commit so ops apply in canonical
// (driver, seq) order and exactly one snapshot publishes per instant.
//
// The partitioning rule in action: region p's callbacks touch only region
// p's sessions, monitors, rng and Driver. Cross-partition state (the
// network) is only read via last-commit values (snapshot reads, committed
// Flow handles) and only written via buffered Driver ops, so the worker
// count cannot perturb anything — RunEngineArm with Workers=1 and
// Workers=N produce equal Digests.
func RunEngineArm(cfg EngineArmConfig) EngineArmResult {
	cfg.applyDefaults()
	if cfg.Build == nil {
		panic("expt: RunEngineArm requires a topology Build func")
	}
	top := cfg.Build()
	log := &netsim.OpLog{}
	shared := netsim.NewShared(netsim.NewNetwork(top.Topo), netsim.SharedConfig{Deterministic: true, Journal: log})
	pe := sim.NewParallel(cfg.Seed, cfg.Regions+1, cfg.Workers)

	type regionStats struct{ started, stopped, triggers int }
	stats := make([]regionStats, cfg.Regions)
	for p := 0; p < cfg.Regions; p++ {
		p := p
		eng := pe.Partition(p)
		drv := shared.Driver(uint64(p + 1))
		paths := top.RegionPaths[p%len(top.RegionPaths)]
		tag := fmt.Sprintf("r%d", p)
		for _, at := range workload.Arrivals(eng.Rand(), workload.Constant(cfg.ArrivalRate), cfg.ArrivalRate, cfg.Horizon) {
			eng.ScheduleAt(at, func(en *sim.Engine) {
				path := paths[en.Rand().Intn(len(paths))]
				demand := cfg.SessionDemand
				f := drv.StartFlow(path, demand, tag)
				stats[p].started++
				mon := control.NewFlowMonitor(en,
					func() float64 { return f.Rate }, // last-commit value; workers only write at the barrier
					func() float64 { return demand },
					control.FlowMonitorConfig{CheckEvery: cfg.MonitorEvery},
					func(*control.FlowMonitor) {
						demand *= 0.7
						drv.SetDemand(f, demand)
						stats[p].triggers++
					})
				life := cfg.SessionLife/2 + time.Duration(en.Rand().Int63n(int64(cfg.SessionLife)))
				en.Schedule(life, func(*sim.Engine) {
					mon.Stop()
					drv.StopFlow(f)
					stats[p].stopped++
				})
			})
		}
	}
	if cfg.Plan != nil {
		if err := cfg.Plan.ScheduleDriver(pe.Partition(cfg.Regions), shared.Driver(uint64(cfg.Regions+1)), top.FaultTarget); err != nil {
			panic(fmt.Sprintf("expt: fault schedule: %v", err))
		}
	}
	pe.OnInstantEnd(func(*sim.ParallelEngine) { shared.Commit() })

	start := time.Now()
	end := pe.Run(cfg.Horizon)
	elapsed := time.Since(start)
	final := shared.Close()

	res := EngineArmResult{
		Regions:    cfg.Regions,
		Workers:    pe.Workers(),
		Processed:  pe.Processed(),
		Instants:   pe.Instants,
		Ops:        len(log.Ops),
		FinalClock: end,
		Digest:     engineArmDigest(log.Ops, final),
		Elapsed:    elapsed,
	}
	for _, s := range stats {
		res.SessionsStarted += s.started
		res.SessionsStopped += s.stopped
		res.MonitorTriggers += s.triggers
	}
	if elapsed > 0 {
		res.EventsPerSec = float64(res.Processed) / elapsed.Seconds()
	}
	return res
}

// DefaultEngineArmTopology builds the standard multi-driver benchmark
// shape: regions disjoint two-hop rails plus one shared hub link every
// region can also route over, so the fault schedule and cross-region
// contention have something to bite on.
func DefaultEngineArmTopology(regions int) EngineArmTopology {
	topo := netsim.NewTopology()
	hub := topo.AddLink("hubA", "hubB", 600e6, time.Millisecond, "hub")
	var regionPaths [][]netsim.Path
	for r := 0; r < regions; r++ {
		from := netsim.NodeID(fmt.Sprintf("r%d-src", r))
		mid := netsim.NodeID(fmt.Sprintf("r%d-mid", r))
		to := netsim.NodeID(fmt.Sprintf("r%d-dst", r))
		l1 := topo.AddLink(from, mid, 120e6, time.Millisecond, "")
		l2 := topo.AddLink(mid, to, 120e6, time.Millisecond, "")
		regionPaths = append(regionPaths, []netsim.Path{{l1, l2}, {hub}})
	}
	return EngineArmTopology{
		Topo:        topo,
		RegionPaths: regionPaths,
		FaultTarget: map[string]faults.Target{"hub": {ID: hub.ID, BaseBps: 600e6}},
	}
}

// DefaultEngineArmConfig is the standard multi-driver scenario over
// DefaultEngineArmTopology: 4 regions of Poisson arrivals with per-session
// monitors, plus a mid-run hub degradation on the fault partition.
func DefaultEngineArmConfig(seed int64, workers int) EngineArmConfig {
	const regions = 4
	return EngineArmConfig{
		Seed:          seed,
		Regions:       regions,
		Workers:       workers,
		Horizon:       2 * time.Minute,
		ArrivalRate:   0.5,
		SessionDemand: 25e6,
		SessionLife:   40 * time.Second,
		MonitorEvery:  4 * time.Second,
		Plan: &faults.Plan{LinkFaults: []faults.LinkFault{{
			Link:   "hub",
			Window: faults.Window{Start: 40 * time.Second, End: 80 * time.Second},
			Factor: 0.25,
		}}},
		Build: func() EngineArmTopology { return DefaultEngineArmTopology(regions) },
	}
}

// engineArmDigest fingerprints a run: FNV-1a over the committed op log
// (kind, flow, links, value, tag of every op, in application order) and the
// final network's per-link rates and capacities.
func engineArmDigest(ops []netsim.Op, n *netsim.Network) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	wf := func(f float64) { w(math.Float64bits(f)) }
	for _, op := range ops {
		w(uint64(op.Kind))
		w(uint64(op.Flow))
		w(uint64(op.Link))
		wf(op.Value)
		h.Write([]byte(op.Tag))
		for _, l := range op.Links {
			w(uint64(l))
		}
	}
	topo := n.Topology()
	for id := 0; id < topo.NumLinks(); id++ {
		lid := netsim.LinkID(id)
		wf(n.LinkRate(lid))
		wf(topo.Link(lid).Capacity)
	}
	return h.Sum64()
}
