// Command eona-bench regenerates every experiment table from the paper
// reproduction (DESIGN.md §4, E1–E15) and prints them.
//
// Usage:
//
//	eona-bench [-seed N] [-only E2,E8] [-list] [-skip-slow] [-drivers 1,2,4] [-engine-drivers 1,2,4] [-parallel N] [-alloc] [-v]
//
// -only selects a comma-separated subset by experiment ID; -list prints
// the registry (ID, slow flag, title) and exits. -skip-slow omits the
// experiments the registry marks slow: the fleet simulations (E1, E4) and
// the wall-clock measurement (E7), which dominate runtime. -drivers sets
// the driver counts swept by E7's shared-network churn rows (concurrent
// goroutines pushing mutations through one owner). -engine-drivers sets
// the worker counts swept by E7's multi-driver engine rows (the lockstep
// partitioned simulation; every count is digest-checked bit-identical to
// workers=1). -parallel runs that many experiments concurrently (0 =
// GOMAXPROCS); tables still print in suite order. E7's wall-clock rows
// are only meaningful at -parallel 1, since co-running experiments steal
// the cycles it is timing. -alloc widens E7's allocator churn and reaction
// rows with B/op and allocs/op columns (runtime MemStats deltas over each
// mutation loop). -v appends each table's diagnostic lines (e.g. E7's
// allocator stats counters).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"eona"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed (results are deterministic per seed)")
	only := flag.String("only", "", "comma-separated experiment IDs to run (e.g. E2,E8); empty = all")
	list := flag.Bool("list", false, "print the experiment registry and exit")
	skipSlow := flag.Bool("skip-slow", false, "skip the experiments marked slow in the registry (E1, E4, E7)")
	drivers := flag.String("drivers", "1,2,4", "comma-separated driver counts for E7's shared-network churn rows")
	engineDrivers := flag.String("engine-drivers", "1,2,4", "comma-separated worker counts for E7's multi-driver engine rows")
	parallel := flag.Int("parallel", 1, "experiments to run concurrently (0 = GOMAXPROCS)")
	alloc := flag.Bool("alloc", false, "add B/op and allocs/op columns to E7's allocator churn and reaction rows")
	verbose := flag.Bool("v", false, "print each table's diagnostic lines (allocator stats counters)")
	flag.Parse()

	if *list {
		for _, d := range eona.Experiments() {
			mark := " "
			if d.Slow {
				mark = "*"
			}
			fmt.Printf("%-4s %s %s\n", d.ID, mark, d.Title)
		}
		fmt.Println("\n* = slow (skipped by -skip-slow)")
		return
	}

	driverCounts, err := parseCounts("-drivers", *drivers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eona-bench: %v\n", err)
		os.Exit(2)
	}
	engineWorkerCounts, err := parseCounts("-engine-drivers", *engineDrivers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "eona-bench: %v\n", err)
		os.Exit(2)
	}

	cfg := eona.ExperimentConfig{
		Seed: *seed,
		E7: eona.ScalabilityConfig{
			DriverCounts:       driverCounts,
			EngineWorkerCounts: engineWorkerCounts,
			MeasureAllocs:      *alloc,
		},
	}
	want := selector(*only, *skipSlow)
	var selected []eona.Experiment
	for _, d := range eona.Experiments() {
		if want(d) {
			selected = append(selected, d.Bind(cfg))
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "eona-bench: no experiments selected")
		os.Exit(2)
	}
	for _, tb := range eona.RunExperiments(selected, *parallel) {
		if *verbose {
			fmt.Println(tb.VerboseString())
		} else {
			fmt.Println(tb.String())
		}
	}
}

// selector builds the experiment filter from the -only and -skip-slow
// flags; the slow set comes from the registry, not a local list.
func selector(only string, skipSlow bool) func(d eona.ExperimentDef) bool {
	selected := map[string]bool{}
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	return func(d eona.ExperimentDef) bool {
		if len(selected) > 0 {
			return selected[d.ID]
		}
		return !(skipSlow && d.Slow)
	}
}

// parseCounts parses a comma-separated count list; every entry must be a
// positive integer.
func parseCounts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid %s entry %q (want positive integers)", flagName, part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s must name at least one count", flagName)
	}
	return out, nil
}
