package expt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSuiteShape runs the whole registry through RunConcurrent with each
// Run hook stubbed out: every entry must receive the caller's Config and
// the tables must come back in suite order.
func TestSuiteShape(t *testing.T) {
	defs := Definitions()
	for i := range defs {
		id := defs[i].ID
		defs[i].Run = func(c Config) *Table { return &Table{Title: fmt.Sprintf("%s/%d", id, c.Seed)} }
	}
	out := RunConcurrent(defs, Config{Seed: 9}, 0)
	if len(out) != 15 {
		t.Fatalf("suite ran %d experiments, want 15", len(out))
	}
	for i, tb := range out {
		if want := fmt.Sprintf("E%d/9", i+1); tb.Title != want {
			t.Errorf("table %d = %q, want %q", i, tb.Title, want)
		}
	}
}

func TestRunConcurrentOrderAndCap(t *testing.T) {
	const n, parallelism = 20, 3
	var active, peak atomic.Int64
	var mu sync.Mutex
	defs := make([]Definition, n)
	for i := range defs {
		i := i
		defs[i] = Definition{ID: "X", Run: func(Config) *Table {
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
	out := RunConcurrent(defs, Config{}, parallelism)
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
	var pick []Definition
	for _, d := range Definitions() {
		if d.ID == "E6" || d.ID == "E9" {
			pick = append(pick, d)
		}
	}
	cfg := Config{Seed: 3}
	seq := RunConcurrent(pick, cfg, 1)
	par := RunConcurrent(pick, cfg, 4)
	for i := range seq {
		if seq[i].String() != par[i].String() {
			t.Errorf("experiment %d differs between sequential and parallel runs", i)
		}
	}
}
