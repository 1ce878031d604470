package main

import (
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"eona/internal/expt"
)

// armOutcome is what one seed's arm(s) produced; two runs of one seed must
// produce equal outcomes.
type armOutcome struct {
	baseline, eona expt.E1Result
	engine         uint64 // EngineArmResult.Digest
}

// simCounters sums what the arms report about their own work.
type simCounters struct {
	mu                 sync.Mutex
	e1Sessions         int
	e1Wall, engineWall time.Duration
	processed          uint64
}

// runArms is the primary op of sim-arms. Even seeds run the paper's
// flash-crowd experiment, baseline and EONA arm, on the serial engine; odd
// seeds run the multi-driver engine arm with one worker.
func runArms(seed int64, tr *tracer, cnt *simCounters) (out armOutcome) {
	if seed%2 == 0 {
		sp := tr.begin("expt.e1_pair", 0, uint64(seed))
		start := time.Now()
		out.baseline = expt.RunE1Arm(expt.E1Config{Seed: seed, Horizon: 6 * time.Minute})
		out.eona = expt.RunE1Arm(expt.E1Config{Seed: seed, EONA: true, Horizon: 6 * time.Minute})
		wall := time.Since(start)
		sp.end()
		cnt.mu.Lock()
		cnt.e1Sessions += out.baseline.Sessions + out.eona.Sessions
		cnt.e1Wall += wall
		cnt.mu.Unlock()
		return out
	}
	sp := tr.begin("expt.engine_arm_w1", 0, uint64(seed))
	arm := expt.RunEngineArm(expt.DefaultEngineArmConfig(seed, 1))
	sp.end()
	out.engine = arm.Digest
	cnt.mu.Lock()
	cnt.processed += arm.Processed
	cnt.engineWall += arm.Elapsed
	cnt.mu.Unlock()
	return out
}

// runSimArms is the sim-arms workload: closed-loop generators running seeded
// experiment arms back to back. No journal, no HTTP: it is the workload every
// serving-path optimisation must leave alone.
func runSimArms(cfg runConfig) (*result, error) {
	res := newResult("sim-arms")
	// Set-up is what a first arm of each kind pays over a warm one: building
	// the simulator's tables and growing the heap.
	var cnt simCounters
	first, setup, _ := setUp(cfg, func() ([2]armOutcome, error) {
		return [2]armOutcome{runArms(cfg.seed*2, nil, &cnt), runArms(cfg.seed*2+1, nil, &cnt)}, nil
	}, func([2]armOutcome) {})
	cnt = simCounters{}

	var next atomic.Int64
	lat := make([]latencies, generators())
	var gens []func(stop func() bool)
	for g := range lat {
		gens = append(gens, func(stop func() bool) {
			for !stop() {
				seed := cfg.seed*2 + next.Add(1) + 1
				start := time.Now()
				runArms(seed, cfg.tr, &cnt)
				lat[g].record(start)
			}
		})
	}
	st := timedPhase(cfg.seconds, func() (all []sample) {
		for g := range lat {
			all = append(all, lat[g].take()...)
		}
		return all
	}, gens...)
	res.setPhase(cfg.seconds, setup, st)
	res.attempted += st.ops

	// Determinism is the simulator's contract: the first even and the first
	// odd seed, run again, reproduce their results.
	again := [2]armOutcome{runArms(cfg.seed*2, nil, &simCounters{}), runArms(cfg.seed*2+1, nil, &simCounters{})}
	res.check(reflect.DeepEqual(first[0], again[0]) && first[0].baseline.Sessions > 0, "E1 arms reproduce for seed %d", cfg.seed*2)
	res.check(first[1].engine == again[1].engine && first[1].engine != 0, "engine arm digest reproduces for seed %d", cfg.seed*2+1)

	if cfg.tr != nil {
		l := res.layer
		l["expt.e1_pair_ms"] = cfg.tr.medianUs("expt.e1_pair") / 1e3
		l["expt.engine_arm_w1_ms"] = cfg.tr.medianUs("expt.engine_arm_w1") / 1e3
		l["expt.e1_sessions_per_s"] = float64(cnt.e1Sessions) / cnt.e1Wall.Seconds()
		l["sim.events_per_s"] = float64(cnt.processed) / cnt.engineWall.Seconds()
		w2 := make([]float64, 5)
		for i := range w2 {
			arm := expt.RunEngineArm(expt.DefaultEngineArmConfig(cfg.seed*2+1, 2))
			w2[i] = us(arm.Elapsed) / 1e3
			res.check(arm.Digest == first[1].engine, "engine arm digest is worker-count independent")
		}
		l["expt.engine_arm_w2_ms"] = median(w2)
	}
	return res, nil
}
