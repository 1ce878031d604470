package expt

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestSuiteShape(t *testing.T) {
	exps := BindAll(Config{Seed: 1})
	if len(exps) != 17 {
		t.Fatalf("suite has %d experiments, want 17", len(exps))
	}
	slow := map[string]bool{"E1": true, "E4": true, "E7": true, "E17": true}
	for i, e := range exps {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("experiment %d incomplete: %+v", i, e)
		}
		if e.Slow != slow[e.ID] {
			t.Errorf("%s Slow = %v, want %v", e.ID, e.Slow, slow[e.ID])
		}
	}
}

func TestRunConcurrentOrderAndCap(t *testing.T) {
	const n, parallelism = 20, 3
	var active, peak atomic.Int64
	var mu sync.Mutex
	exps := make([]Experiment, n)
	for i := range exps {
		i := i
		exps[i] = Experiment{ID: "X", Run: func() *Table {
			cur := active.Add(1)
			mu.Lock()
			if cur > peak.Load() {
				peak.Store(cur)
			}
			mu.Unlock()
			tb := &Table{Title: string(rune('a' + i))}
			active.Add(-1)
			return tb
		}}
	}
	out := RunConcurrent(exps, parallelism)
	if len(out) != n {
		t.Fatalf("got %d tables, want %d", len(out), n)
	}
	for i, tb := range out {
		if tb == nil || tb.Title != string(rune('a'+i)) {
			t.Fatalf("result %d out of order: %+v", i, tb)
		}
	}
	if p := peak.Load(); p > parallelism {
		t.Errorf("observed %d concurrent experiments, cap was %d", p, parallelism)
	}
}

// TestRunConcurrentMatchesSequential runs two fast suite entries both ways
// and checks the rendered tables agree — the determinism contract of the
// parallel runner.
func TestRunConcurrentMatchesSequential(t *testing.T) {
	pick := func() []Experiment {
		var out []Experiment
		for _, e := range BindAll(Config{Seed: 3}) {
			if e.ID == "E6" || e.ID == "E9" {
				out = append(out, e)
			}
		}
		return out
	}
	seq := RunConcurrent(pick(), 1)
	par := RunConcurrent(pick(), 4)
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Errorf("experiment %d differs between sequential and parallel runs", i)
		}
	}
}
