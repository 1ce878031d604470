package expt

import (
	"runtime"
	"sync"
)

// RunConcurrent runs each definition under cfg with at most parallelism
// workers (GOMAXPROCS(0) when parallelism <= 0) and returns their tables in
// input order. parallelism 1 reproduces the sequential runner exactly.
//
// Every experiment draws randomness from its own rand.New(rand.NewSource(seed))
// and simulates against private state, so entries are independent and safe
// to run concurrently. The caveat is wall-clock honesty, not correctness:
// E7's throughput rows are timing measurements, and co-running experiments
// steal cycles from them — run E7 alone (or with parallelism 1) when its
// absolute numbers matter.
func RunConcurrent(defs []Definition, cfg Config, parallelism int) []*Table {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, parallelism)
	out := make([]*Table, len(defs))
	var wg sync.WaitGroup
	for i, d := range defs {
		wg.Add(1)
		go func(i int, d Definition) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i] = d.Run(cfg)
		}(i, d)
	}
	wg.Wait()
	return out
}
