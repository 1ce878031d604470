package expt

import (
	"testing"
	"time"

	"eona/internal/faults"
	"eona/internal/netsim"
)

// engineArmFixtures mirrors the topology shapes the allocator differentials
// are pinned on (netsim's line/rails/e1/skewed fixture set), packaged for
// the multi-driver harness: per-region candidate paths plus named fault
// targets.
func engineArmFixtures() map[string]func() EngineArmTopology {
	return map[string]func() EngineArmTopology{
		"line": func() EngineArmTopology {
			topo := netsim.NewTopology()
			a := topo.AddLink("src", "m1", 100e6, 2*time.Millisecond, "a")
			b := topo.AddLink("m1", "m2", 80e6, 2*time.Millisecond, "b")
			c := topo.AddLink("m2", "dst", 120e6, 2*time.Millisecond, "c")
			return EngineArmTopology{
				Topo: topo,
				RegionPaths: [][]netsim.Path{
					{{a, b, c}, {a}},
					{{b, c}, {a, b}},
				},
				FaultTarget: map[string]faults.Target{"mid": {ID: b.ID, BaseBps: 80e6}},
			}
		},
		"rails": func() EngineArmTopology {
			topo := netsim.NewTopology()
			var regions [][]netsim.Path
			var first *netsim.Link
			for r := 0; r < 4; r++ {
				from := netsim.NodeID(rune('a' + r))
				mid := netsim.NodeID(rune('m'))
				to := netsim.NodeID(rune('A' + r))
				l1 := topo.AddLink(from, mid, 90e6, time.Millisecond, "")
				l2 := topo.AddLink(mid, to, 90e6, time.Millisecond, "")
				if first == nil {
					first = l1
				}
				regions = append(regions, []netsim.Path{{l1, l2}, {l1}})
			}
			return EngineArmTopology{
				Topo:        topo,
				RegionPaths: regions,
				FaultTarget: map[string]faults.Target{"rail0": {ID: first.ID, BaseBps: 90e6}},
			}
		},
		"e1": func() EngineArmTopology {
			// The flash-crowd shape: two CDN paths funnelling into one
			// shared access bottleneck.
			topo := netsim.NewTopology()
			cdn1 := topo.AddLink("cdn1", "peer", 400e6, 5*time.Millisecond, "cdn1")
			cdn2 := topo.AddLink("cdn2", "peer", 400e6, 15*time.Millisecond, "cdn2")
			access := topo.AddLink("peer", "users", 150e6, 3*time.Millisecond, "access")
			return EngineArmTopology{
				Topo: topo,
				RegionPaths: [][]netsim.Path{
					{{cdn1, access}},
					{{cdn2, access}},
				},
				FaultTarget: map[string]faults.Target{"access": {ID: access.ID, BaseBps: 150e6}},
			}
		},
		"skewed": func() EngineArmTopology {
			topo := netsim.NewTopology()
			hub := topo.AddLink("hubA", "hubB", 1000e6, time.Millisecond, "hub")
			regions := [][]netsim.Path{{{hub}}}
			for i := 0; i < 4; i++ {
				from := netsim.NodeID(rune('a' + i))
				to := netsim.NodeID(rune('A' + i))
				regions = append(regions, []netsim.Path{{topo.AddLink(from, to, 90e6, time.Millisecond, "")}})
			}
			return EngineArmTopology{
				Topo:        topo,
				RegionPaths: regions,
				FaultTarget: map[string]faults.Target{"hub": {ID: hub.ID, BaseBps: 1000e6}},
			}
		},
	}
}

func engineArmConfig(build func() EngineArmTopology, workers int) EngineArmConfig {
	return EngineArmConfig{
		Seed:          7,
		Regions:       4,
		Workers:       workers,
		Horizon:       90 * time.Second,
		ArrivalRate:   0.4,
		SessionDemand: 30e6,
		SessionLife:   30 * time.Second,
		MonitorEvery:  4 * time.Second,
		Plan: &faults.Plan{LinkFaults: []faults.LinkFault{{
			Link:   firstTargetName(build()),
			Window: faults.Window{Start: 30 * time.Second, End: 60 * time.Second},
			Factor: 0.3,
		}}},
		Build: build,
	}
}

func firstTargetName(top EngineArmTopology) string {
	for name := range top.FaultTarget {
		return name
	}
	return ""
}

// TestEngineArmDifferentialOnFixtures is the multi-driver determinism pin:
// on every topology fixture, the same scenario run with 1 worker (the
// serial reference) and with 4 workers commits a bit-identical op log and
// lands on a bit-identical network (equal digests; every session start,
// stop and monitor SetDemand is an op in that log), and processes the same
// event count.
func TestEngineArmDifferentialOnFixtures(t *testing.T) {
	for name, build := range engineArmFixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			serial := RunEngineArm(engineArmConfig(build, 1))
			parallel := RunEngineArm(engineArmConfig(build, 4))
			if serial.Digest != parallel.Digest {
				t.Errorf("digest %x (workers=1) != %x (workers=4)", serial.Digest, parallel.Digest)
			}
			if serial.Processed != parallel.Processed {
				t.Errorf("Processed %d != %d", serial.Processed, parallel.Processed)
			}
			// With no regions the log holds only the fault plan's ops; a
			// digest equal to that run's means no session ever started.
			idle := engineArmConfig(build, 1)
			idle.Regions = 0
			if RunEngineArm(idle).Digest == serial.Digest {
				t.Error("digest equals the session-free run's; differential is vacuous")
			}
		})
	}
}

// Same config twice → same digest: the harness has no hidden run-to-run
// state (wall-clock, map iteration, scheduler timing).
func TestEngineArmRepeatable(t *testing.T) {
	build := engineArmFixtures()["e1"]
	a := RunEngineArm(engineArmConfig(build, 0)) // 0 = GOMAXPROCS
	b := RunEngineArm(engineArmConfig(build, 0))
	if a.Digest != b.Digest || a.Processed != b.Processed {
		t.Errorf("repeat run diverged: digest %x/%x processed %d/%d",
			a.Digest, b.Digest, a.Processed, b.Processed)
	}
}

// BenchmarkEngineArm prices a full multi-driver run at 1 and 4 workers; on
// a multi-core runner the workers-4 row shows the wall-clock speedup the
// lockstep engine buys (on one core both rows cost the same, which the
// bench gate tolerates).
func BenchmarkEngineArm(b *testing.B) {
	build := engineArmFixtures()["rails"]
	for _, workers := range []int{1, 4} {
		name := map[int]string{1: "workers-1", 4: "workers-4"}[workers]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunEngineArm(engineArmConfig(build, workers))
			}
		})
	}
}
