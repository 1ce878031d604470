package expt

import (
	"runtime"
	"sync"
)

// Experiment is one runnable entry of the E-suite.
type Experiment struct {
	// ID is the short name ("E7") used by eona-bench's -only filter.
	ID string
	// Slow marks the experiments eona-bench's -skip-slow excludes.
	Slow bool
	// Run executes the experiment and renders its table.
	Run func() *Table
}

// RunConcurrent executes the experiments with at most parallelism workers
// (GOMAXPROCS(0) when parallelism <= 0) and returns their tables in input
// order. parallelism 1 reproduces the sequential runner exactly.
//
// Every experiment draws randomness from its own rand.New(rand.NewSource(seed))
// and simulates against private state, so entries are independent and safe
// to run concurrently. The caveat is wall-clock honesty, not correctness:
// E7's throughput rows are timing measurements, and co-running experiments
// steal cycles from them — run E7 alone (or with parallelism 1) when its
// absolute numbers matter.
func RunConcurrent(exps []Experiment, parallelism int) []*Table {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, parallelism)
	out := make([]*Table, len(exps))
	var wg sync.WaitGroup
	for i, e := range exps {
		wg.Add(1)
		go func(i int, e Experiment) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = e.Run()
		}(i, e)
	}
	wg.Wait()
	return out
}
