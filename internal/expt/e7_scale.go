package expt

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"eona/internal/agg"
	"eona/internal/auth"
	"eona/internal/control"
	"eona/internal/core"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/sim"
)

// E7 — §5 "scalability".
//
// Paper claim: "a typical AppP can collect user experience for tens [of]
// millions of sessions each day, and such large volumes of data can cause
// serious scalability challenges for the control logic of InfPs, to which
// recent advances in big data platforms ... may provide an approach."
//
// We measure the throughput of the single-process A2I pipeline this
// repository ships instead of a cluster: Collector ingest (the dimensional
// rollup every record passes through), count-min sketch updates, P²
// quantile updates, and the end-to-end looking-glass query latency. The
// headline number is the implied sessions/day capacity of one core.
//
// Unlike the other experiments' simulations these are wall-clock measurements; exact
// numbers vary by machine, but the shape — a single core comfortably above
// the paper's "tens of millions per day" — is the reproducible claim. The
// matching testing.B benchmarks live in bench_test.go.

// E7Config parameterizes the scalability run.
type E7Config struct {
	// Records is the ingest volume (default 500k when 0).
	Records int
	// DriverCounts lists the concurrent-goroutine driver counts to sweep
	// against one netsim.SharedNetwork (default 1, 2, 4; nil uses the
	// default, empty non-nil skips the sweep). Each driver mutates a
	// disjoint subset of rails while a reader goroutine spins on published
	// snapshots.
	DriverCounts []int
	// EngineWorkerCounts lists the worker counts to sweep for the
	// multi-driver engine rows (default 1, 2, 4; nil uses the default,
	// empty non-nil skips the sweep). Each row runs the full
	// DefaultEngineArmConfig scenario — partitioned arrivals, monitors and
	// faults in lockstep over a deterministic SharedNetwork — and must
	// produce the workers=1 digest bit for bit.
	EngineWorkerCounts []int
	// MeasureAllocs adds B/op and allocs/op columns to the allocator churn
	// and reaction rows (eona-bench -alloc), measured from the runtime's
	// cumulative allocation counters around each mutation loop.
	MeasureAllocs bool
}

// E7Alloc is one row's heap cost per operation, measured under -alloc.
type E7Alloc struct {
	Measured    bool
	BytesPerOp  float64
	AllocsPerOp float64
}

// E7DriverPoint is one shared-network measurement: mutation throughput
// with the given number of concurrent driver goroutines, relative to
// driving the serial Network directly (no command channel).
type E7DriverPoint struct {
	Drivers int
	// PerSec is committed mutations/second through the owner goroutine.
	PerSec float64
	// Speedup is PerSec over the direct serial-Network rate on the same
	// workload (< 1 on one core: the rows price the command-channel hop).
	Speedup float64
}

// E7EnginePoint is one multi-driver engine measurement: the full
// partitioned scenario (DefaultEngineArmConfig) run with the given worker
// count.
type E7EnginePoint struct {
	Workers int
	// PerSec is engine events processed per wall-clock second.
	PerSec float64
	// Speedup is PerSec over the workers=1 run of the same scenario.
	Speedup float64
	// Identical reports whether this run's op-log/final-state digest
	// matched the workers=1 reference — the determinism contract, checked
	// on every sweep, not just in tests.
	Identical bool
}

// E7Result carries measured rates.
type E7Result struct {
	// CollectorPerSec is Collector.Ingest records/second.
	CollectorPerSec float64
	// ImpliedSessionsPerDay = CollectorPerSec × 86400.
	ImpliedSessionsPerDay float64
	// SketchAddPerSec is count-min updates/second.
	SketchAddPerSec float64
	// P2AddPerSec is quantile updates/second.
	P2AddPerSec float64
	// SketchMemoryBytes is the count-min footprint at ε=0.1%, δ=0.1%.
	SketchMemoryBytes int
	// QueryP50 is the median looking-glass round trip over loopback
	// HTTP.
	QueryP50 time.Duration

	// Netsim allocator churn (session start/stop/adapt against the fair-
	// share allocator — the other per-session hot path besides ingest).
	// ChurnFullPerSec follows every mutation with a from-scratch
	// Reallocate() of the whole network (the baseline); ChurnIncrementalPerSec
	// is the allocator as shipped, which fills only the touched component.
	ChurnFullPerSec        float64
	ChurnIncrementalPerSec float64
	// ChurnSpeedup = incremental/full.
	ChurnSpeedup float64
	// Per-mutation heap cost of each churn variant (E7Config.MeasureAllocs).
	ChurnFullAlloc        E7Alloc
	ChurnIncrementalAlloc E7Alloc
	// ChurnStats snapshots the allocator counters after the incremental
	// churn run (printed under eona-bench -v).
	ChurnStats netsim.Stats

	// Coalesced-reaction churn: bursts of same-instant control-loop
	// reactions against a multi-component topology, committed one
	// reallocation each vs folded into one end-of-tick batch.
	ReactUncoalescedPerSec float64
	ReactCoalescedPerSec   float64
	// ReactFlowsSaved = flows re-solved uncoalesced ÷ coalesced (≥ 2 on
	// this shape: 8 same-instant reactions over 2 components).
	ReactFlowsSaved float64
	// Per-reaction heap cost of each variant (E7Config.MeasureAllocs).
	ReactUncoalescedAlloc E7Alloc
	ReactCoalescedAlloc   E7Alloc
	// ReactStats snapshots the coalesced run's allocator counters.
	ReactStats netsim.Stats

	// SharedSerialPerSec is the direct serial-Network mutation rate on the
	// shared-arm workload — the no-channel baseline the driver rows are
	// compared against.
	SharedSerialPerSec float64
	// DriverPoints are the shared-network rows (one per swept driver
	// count).
	DriverPoints []E7DriverPoint

	// EnginePoints are the multi-driver engine rows (one per swept worker
	// count).
	EnginePoints []E7EnginePoint
	// Procs is runtime.GOMAXPROCS(0) at measurement time.
	Procs int
}

// e7Records synthesizes a record stream across a realistic key space.
func e7Records(n int) []core.QoERecord {
	isps := []string{"isp-a", "isp-b", "isp-c", "isp-d", "isp-e"}
	cdns := []string{"cdnX", "cdnY", "cdnZ"}
	clusters := []string{"east", "west", "eu", "apac"}
	out := make([]core.QoERecord, n)
	for i := range out {
		out[i] = core.QoERecord{
			SessionID:      fmt.Sprintf("s%08d", i),
			Timestamp:      time.Duration(i) * time.Millisecond,
			AppP:           "vod",
			ClientISP:      isps[i%len(isps)],
			CDN:            cdns[i%len(cdns)],
			Cluster:        clusters[i%len(clusters)],
			Score:          float64(i % 100),
			BufferingRatio: float64(i%10) / 100,
			AvgBitrateBps:  float64(1+i%8) * 5e5,
			StartupDelay:   time.Duration(i%5000) * time.Millisecond,
			PlayTime:       10 * time.Minute,
		}
	}
	return out
}

// RunE7 measures the pipeline. n controls the ingest volume (default 500k
// when 0).
func RunE7(n int) E7Result {
	return RunE7Config(E7Config{Records: n})
}

// RunE7Config measures the pipeline with explicit knobs.
func RunE7Config(cfg E7Config) E7Result {
	n := cfg.Records
	if n <= 0 {
		n = 500_000
	}
	recs := e7Records(n)
	var res E7Result
	res.Procs = runtime.GOMAXPROCS(0)

	// Collector ingest.
	col := core.NewA2ICollector(core.CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	start := time.Now()
	for i := range recs {
		col.Ingest(recs[i])
	}
	el := time.Since(start).Seconds()
	res.CollectorPerSec = float64(n) / el
	res.ImpliedSessionsPerDay = res.CollectorPerSec * 86400

	// Count-min.
	cm := agg.NewCountMinWithError(0.001, 0.001)
	res.SketchMemoryBytes = cm.MemoryBytes()
	start = time.Now()
	for i := range recs {
		cm.Add(recs[i].ClientISP, 1)
	}
	res.SketchAddPerSec = float64(n) / time.Since(start).Seconds()

	// P² quantile.
	p2 := agg.NewP2(0.95)
	start = time.Now()
	for i := range recs {
		p2.Add(recs[i].Score)
	}
	res.P2AddPerSec = float64(n) / time.Since(start).Seconds()

	// Looking-glass round trips over loopback.
	store := auth.NewStore()
	store.Register("tok", "isp-a", auth.ScopeA2IQoE)
	srv := lookingglass.NewServer(store, nil, lookingglass.Sources{
		QoESummaries: col.Summaries,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := lookingglass.NewClient(ts.URL, "tok", ts.Client())
	const reqs = 64
	lat := make([]time.Duration, 0, reqs)
	ctx := context.Background()
	for i := 0; i < reqs; i++ {
		t0 := time.Now()
		if _, err := client.QoESummaries(ctx); err != nil {
			panic(fmt.Sprintf("expt: E7 looking-glass query: %v", err))
		}
		lat = append(lat, time.Since(t0))
	}
	// Median by insertion sort (small n).
	for i := 1; i < len(lat); i++ {
		for j := i; j > 0 && lat[j] < lat[j-1]; j-- {
			lat[j], lat[j-1] = lat[j-1], lat[j]
		}
	}
	res.QueryP50 = lat[len(lat)/2]

	// Allocator churn: session start/stop/adapt mutations against a
	// many-component topology (64 disjoint "rails" of 3 links, 8 flows
	// each). Each mutation touches one rail; the allocator recomputes only
	// that rail's component while the baseline re-solves all 512 flows
	// every time.
	const (
		churnRails    = 64
		churnLinks    = 3
		churnFlows    = 8
		churnMuts     = 6_000
		churnCapacity = 50e6
	)
	// measureAllocs wraps an ops-long hot loop with the runtime's cumulative
	// allocation counters (TotalAlloc/Mallocs are monotonic, so concurrent
	// GC cannot corrupt the deltas) when -alloc asked for heap columns.
	measureAllocs := func(ops int, loop func()) E7Alloc {
		if !cfg.MeasureAllocs {
			loop()
			return E7Alloc{}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		loop()
		runtime.ReadMemStats(&m1)
		return E7Alloc{
			Measured:    true,
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		}
	}

	var churnStats netsim.Stats
	churn := func(fullEachMutation bool) (float64, E7Alloc) {
		topo := netsim.NewTopology()
		paths := make([]netsim.Path, churnRails)
		for r := 0; r < churnRails; r++ {
			for l := 0; l < churnLinks; l++ {
				lk := topo.AddLink(
					netsim.NodeID(fmt.Sprintf("r%d-n%d", r, l)),
					netsim.NodeID(fmt.Sprintf("r%d-n%d", r, l+1)),
					churnCapacity, time.Millisecond, "rail")
				paths[r] = append(paths[r], lk)
			}
		}
		nw := netsim.NewNetwork(topo)
		flows := make([]*netsim.Flow, 0, churnRails*churnFlows)
		nw.Batch(func() {
			for r := 0; r < churnRails; r++ {
				for i := 0; i < churnFlows; i++ {
					flows = append(flows, nw.StartFlow(paths[r], 4e6, "churn"))
				}
			}
		})
		var rate float64
		alloc := measureAllocs(churnMuts, func() {
			t0 := time.Now()
			for i := 0; i < churnMuts; i++ {
				// (i + i/len) decorrelates the value from the flow index so
				// every visit actually changes the demand/weight (the setters
				// no-op on unchanged values).
				switch i % 3 {
				case 0:
					nw.SetDemand(flows[i%len(flows)], float64(1+(i+i/len(flows))%8)*1e6)
				case 1:
					r := i % churnRails
					nw.StopFlow(flows[r*churnFlows])
					flows[r*churnFlows] = nw.StartFlow(paths[r], 4e6, "churn")
				default:
					nw.SetWeight(flows[i%len(flows)], float64(1+(i+i/len(flows))%4))
				}
				if fullEachMutation {
					nw.Reallocate()
				}
			}
			rate = float64(churnMuts) / time.Since(t0).Seconds()
		})
		churnStats = nw.Stats()
		return rate, alloc
	}
	res.ChurnFullPerSec, res.ChurnFullAlloc = churn(true)
	res.ChurnIncrementalPerSec, res.ChurnIncrementalAlloc = churn(false)
	res.ChurnStats = churnStats
	if res.ChurnFullPerSec > 0 {
		res.ChurnSpeedup = res.ChurnIncrementalPerSec / res.ChurnFullPerSec
	}

	// Coalesced-reaction churn: 8 same-instant monitor-style reactions per
	// simulated tick, spread over 2 of 4 components (8 flows each),
	// committed one-by-one vs folded into one end-of-tick batch by
	// control.Coalescer.
	const reactTicks, reactPerTick = 4_000, 8
	var uncoalStats, coalStats netsim.Stats
	react := func(coalesce bool) (float64, E7Alloc) {
		const comps, perComp, spread = 4, 8, 2
		eng := sim.NewEngine(1)
		topo := netsim.NewTopology()
		paths := make([]netsim.Path, comps)
		for c := 0; c < comps; c++ {
			paths[c] = netsim.Path{topo.AddLink(
				netsim.NodeID(fmt.Sprintf("c%d-a", c)),
				netsim.NodeID(fmt.Sprintf("c%d-b", c)),
				churnCapacity, time.Millisecond, "react")}
		}
		nw := netsim.NewNetwork(topo)
		flows := make([]*netsim.Flow, 0, comps*perComp)
		nw.Batch(func() {
			for c := 0; c < comps; c++ {
				for i := 0; i < perComp; i++ {
					flows = append(flows, nw.StartFlow(paths[c], 4e6, "react"))
				}
			}
		})
		coal := control.NewCoalescer(eng, nw)
		tick := 0
		eng.Every(time.Millisecond, func(*sim.Engine) bool {
			tick++
			if tick > reactTicks {
				return false
			}
			for r := 0; r < reactPerTick; r++ {
				f := flows[(r%spread)*perComp+(tick+r/spread)%perComp]
				val := 1e6 * float64(1+(tick+r)%8)
				if coalesce {
					coal.Defer(func() { nw.SetDemand(f, val) })
				} else {
					nw.SetDemand(f, val)
				}
			}
			return true
		})
		var rate float64
		alloc := measureAllocs(reactTicks*reactPerTick, func() {
			t0 := time.Now()
			eng.Run(time.Duration(reactTicks+1) * time.Millisecond)
			rate = float64(reactTicks*reactPerTick) / time.Since(t0).Seconds()
		})
		if coalesce {
			coalStats = nw.Stats()
		} else {
			uncoalStats = nw.Stats()
		}
		return rate, alloc
	}
	res.ReactUncoalescedPerSec, res.ReactUncoalescedAlloc = react(false)
	res.ReactCoalescedPerSec, res.ReactCoalescedAlloc = react(true)
	res.ReactStats = coalStats
	if coalStats.FlowsRecomputed > 0 {
		res.ReactFlowsSaved = float64(uncoalStats.FlowsRecomputed) / float64(coalStats.FlowsRecomputed)
	}

	// Shared-network driver sweep: the same lifecycle churn routed through
	// a netsim.SharedNetwork's owner goroutine from N concurrent drivers.
	driverCounts := cfg.DriverCounts
	if driverCounts == nil {
		driverCounts = []int{1, 2, 4}
	}
	if len(driverCounts) > 0 {
		res.SharedSerialPerSec = measureSharedDrivers(0)
		for _, d := range driverCounts {
			perSec := measureSharedDrivers(d)
			pt := E7DriverPoint{Drivers: d, PerSec: perSec}
			if res.SharedSerialPerSec > 0 {
				pt.Speedup = perSec / res.SharedSerialPerSec
			}
			res.DriverPoints = append(res.DriverPoints, pt)
		}
	}

	// Multi-driver engine sweep: the whole partitioned scenario — arrivals,
	// monitors, faults, per-instant Commit barrier — at each worker count,
	// with every run's digest checked against the workers=1 reference.
	workerCounts := cfg.EngineWorkerCounts
	if workerCounts == nil {
		workerCounts = []int{1, 2, 4}
	}
	if len(workerCounts) > 0 {
		ref := RunEngineArm(DefaultEngineArmConfig(7, 1))
		refPerSec := ref.EventsPerSec
		for _, w := range workerCounts {
			arm := ref
			if w != 1 {
				arm = RunEngineArm(DefaultEngineArmConfig(7, w))
			}
			pt := E7EnginePoint{
				Workers:   w,
				PerSec:    arm.EventsPerSec,
				Identical: arm.Digest == ref.Digest,
			}
			if refPerSec > 0 {
				pt.Speedup = arm.EventsPerSec / refPerSec
			}
			res.EnginePoints = append(res.EnginePoints, pt)
		}
	}
	return res
}

// measureSharedDrivers times lifecycle churn against one SharedNetwork:
// `drivers` goroutines each own a disjoint subset of rails and push
// demand/stop/start mutations through the owner goroutine while one reader
// goroutine spins on published snapshots. drivers == 0 measures the
// baseline: the identical single-goroutine workload applied directly to
// the serial Network (no command channel, no snapshots).
func measureSharedDrivers(drivers int) float64 {
	const (
		sRails    = 32
		sLinks    = 2
		sFlows    = 4
		sMuts     = 8_000
		sCapacity = 50e6
	)
	topo := netsim.NewTopology()
	paths := make([]netsim.Path, sRails)
	for r := 0; r < sRails; r++ {
		for l := 0; l < sLinks; l++ {
			lk := topo.AddLink(
				netsim.NodeID(fmt.Sprintf("sr%d-n%d", r, l)),
				netsim.NodeID(fmt.Sprintf("sr%d-n%d", r, l+1)),
				sCapacity, time.Millisecond, "shared-rail")
			paths[r] = append(paths[r], lk)
		}
	}
	nw := netsim.NewNetwork(topo)
	flows := make([][]*netsim.Flow, sRails)
	nw.Batch(func() {
		for r := 0; r < sRails; r++ {
			for i := 0; i < sFlows; i++ {
				flows[r] = append(flows[r], nw.StartFlow(paths[r], 4e6, "shared"))
			}
		}
	})

	// churnRail applies one mutation to rail r using the given mutators.
	type mutator struct {
		setDemand func(f *netsim.Flow, bps float64)
		stop      func(f *netsim.Flow)
		start     func(p netsim.Path, bps float64) *netsim.Flow
	}
	churnRail := func(m mutator, r, i int) {
		fs := flows[r]
		switch i % 3 {
		case 0:
			m.setDemand(fs[i%len(fs)], float64(1+(i+i/len(fs))%8)*1e6)
		case 1:
			m.stop(fs[0])
			fs[0] = m.start(paths[r], 4e6)
		default:
			m.setDemand(fs[(i+1)%len(fs)], float64(1+(i+i/len(fs))%4)*2e6)
		}
	}

	if drivers == 0 {
		m := mutator{
			setDemand: nw.SetDemand,
			stop:      nw.StopFlow,
			start:     func(p netsim.Path, bps float64) *netsim.Flow { return nw.StartFlow(p, bps, "shared") },
		}
		t0 := time.Now()
		for i := 0; i < sMuts; i++ {
			churnRail(m, i%sRails, i)
		}
		return float64(sMuts) / time.Since(t0).Seconds()
	}

	if drivers > sRails {
		drivers = sRails // one rail is the smallest unit of ownership
	}
	s := netsim.NewShared(nw, netsim.SharedConfig{})
	m := mutator{
		setDemand: s.SetDemand,
		stop:      s.StopFlow,
		start:     func(p netsim.Path, bps float64) *netsim.Flow { return s.StartFlow(p, bps, "shared") },
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			sn := s.Snapshot()
			_ = sn.Utilization(paths[i%sRails][0].ID)
			_ = sn.NumFlows()
			i++
		}
	}()
	perDriver := sMuts / drivers
	t0 := time.Now()
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			// Disjoint rail ownership: driver d churns exactly the rails
			// ≡ d (mod drivers), so per-rail flow-handle slices are never
			// shared between drivers.
			var own []int
			for r := d; r < sRails; r += drivers {
				own = append(own, r)
			}
			for i := 0; i < perDriver; i++ {
				churnRail(m, own[i%len(own)], i)
			}
		}(d)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	close(stop)
	readerWG.Wait()
	s.Close()
	return float64(drivers*perDriver) / el
}

// Table renders the measurements. When any row carries alloc columns
// (eona-bench -alloc) the table widens to five columns and rows without a
// measurement show "-".
func (r E7Result) Table() *Table {
	allocMode := r.ChurnFullAlloc.Measured || r.ChurnIncrementalAlloc.Measured ||
		r.ReactUncoalescedAlloc.Measured || r.ReactCoalescedAlloc.Measured
	t := &Table{
		Title:   "E7 (§5): A2I pipeline scalability (single core)",
		Columns: []string{"stage", "throughput", "note"},
	}
	if allocMode {
		t.Columns = []string{"stage", "throughput", "B/op", "allocs/op", "note"}
	}
	add := func(stage, throughput string, al E7Alloc, note string) {
		if !allocMode {
			t.AddRow(stage, throughput, note)
			return
		}
		bop, aop := "-", "-"
		if al.Measured {
			bop = fmt.Sprintf("%.0f", al.BytesPerOp)
			aop = fmt.Sprintf("%.2f", al.AllocsPerOp)
		}
		t.AddRow(stage, throughput, bop, aop, note)
	}
	add("Collector.Ingest (full rollup)",
		fmt.Sprintf("%.2fM rec/s", r.CollectorPerSec/1e6), E7Alloc{},
		fmt.Sprintf("≈ %.1fB sessions/day", r.ImpliedSessionsPerDay/1e9))
	add("count-min sketch add",
		fmt.Sprintf("%.2fM ops/s", r.SketchAddPerSec/1e6), E7Alloc{},
		fmt.Sprintf("%.1f MiB at ε=δ=0.1%%", float64(r.SketchMemoryBytes)/(1<<20)))
	add("P² quantile add",
		fmt.Sprintf("%.2fM ops/s", r.P2AddPerSec/1e6), E7Alloc{}, "O(1) memory")
	add("looking-glass query (loopback)",
		fmt.Sprintf("p50 %s", r.QueryP50), E7Alloc{}, "auth + encode + HTTP round trip")
	add("allocator churn (Reallocate() per mutation)",
		fmt.Sprintf("%.1fk muts/s", r.ChurnFullPerSec/1e3), r.ChurnFullAlloc,
		"512 flows, 64 components, re-solve all per mutation")
	add("allocator churn (incremental)",
		fmt.Sprintf("%.1fk muts/s", r.ChurnIncrementalPerSec/1e3), r.ChurnIncrementalAlloc,
		fmt.Sprintf("touched component only, found via the registry — %.0f× faster", r.ChurnSpeedup))
	if len(r.DriverPoints) > 0 {
		add("shared-network churn (serial baseline)",
			fmt.Sprintf("%.1fk muts/s", r.SharedSerialPerSec/1e3), E7Alloc{},
			"same workload on the raw Network, no command channel")
		for _, p := range r.DriverPoints {
			add(fmt.Sprintf("shared-network churn (%d drivers)", p.Drivers),
				fmt.Sprintf("%.1fk muts/s", p.PerSec/1e3), E7Alloc{},
				fmt.Sprintf("%.2f× vs direct serial; snapshot reader live", p.Speedup))
		}
	}
	for _, p := range r.EnginePoints {
		ident := "bit-identical to workers=1"
		if !p.Identical {
			ident = "DIGEST MISMATCH vs workers=1"
		}
		add(fmt.Sprintf("multi-driver engine (%d workers)", p.Workers),
			fmt.Sprintf("%.1fk ev/s", p.PerSec/1e3), E7Alloc{},
			fmt.Sprintf("%.2f× vs 1 worker; %s", p.Speedup, ident))
	}
	if r.ReactUncoalescedPerSec > 0 {
		add("reaction churn (uncoalesced)",
			fmt.Sprintf("%.1fk react/s", r.ReactUncoalescedPerSec/1e3), r.ReactUncoalescedAlloc,
			"8 same-instant reactions → 8 reallocations per tick")
		add("reaction churn (coalesced end-of-tick)",
			fmt.Sprintf("%.1fk react/s", r.ReactCoalescedPerSec/1e3), r.ReactCoalescedAlloc,
			fmt.Sprintf("one batch per tick — %.1f× fewer flows re-solved", r.ReactFlowsSaved))
	}
	if allocMode {
		t.Notes = append(t.Notes,
			"B/op and allocs/op are runtime MemStats deltas over each mutation loop (-alloc); lifecycle restarts keep the per-flow handle allocation")
	}
	t.Notes = append(t.Notes,
		"paper: 'tens [of] millions of sessions each day' — one core covers that with orders of magnitude to spare")
	if len(r.DriverPoints) > 0 {
		note := fmt.Sprintf("driver rows measured at GOMAXPROCS=%d", r.Procs)
		if r.Procs == 1 {
			note += "; on one core they price the command-channel hop, not parallel speedup"
		}
		t.Notes = append(t.Notes, note)
	}
	if len(r.EnginePoints) > 0 {
		t.Notes = append(t.Notes,
			fmt.Sprintf("engine rows run the full partitioned scenario at GOMAXPROCS=%d; worker count never changes results (digest-checked), only wall-clock", r.Procs))
	}
	t.Verbose = append(t.Verbose,
		fmt.Sprintf("incremental churn stats: %s", statsLine(r.ChurnStats)),
		fmt.Sprintf("coalesced reaction stats: %s", statsLine(r.ReactStats)))
	return t
}

// statsLine renders an allocator stats snapshot for -v output.
func statsLine(s netsim.Stats) string {
	return fmt.Sprintf(
		"reallocs=%d incremental=%d flows-recomputed=%d components-recomputed=%d registry-rebuilds=%d coalesced-reactions=%d",
		s.Reallocations, s.IncrementalReallocations, s.FlowsRecomputed,
		s.ComponentsRecomputed, s.RegistryRebuilds, s.CoalescedReactions)
}
