// Command eona-bench regenerates every experiment table from the paper
// reproduction (DESIGN.md §4, E1–E15) and prints them.
//
// Usage:
//
//	eona-bench [-seed N] [-only E2,E8] [-list] [-skip-slow] [-parallel N]
//
// -only selects a comma-separated subset by experiment ID (an ID not in
// the registry is an error); -list prints the registry (ID, slow flag,
// title) and exits. -skip-slow omits the experiments the registry marks
// slow: the fleet simulations (E1, E4) and the wall-clock measurement (E7),
// which dominate runtime. -parallel runs that many experiments concurrently
// (0 = GOMAXPROCS, below 0 is an error); tables still print in suite order.
// E7's wall-clock rows are only meaningful at -parallel 1, since co-running
// experiments steal the cycles it is timing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eona"
)

// The flags are package-level so TestDocsNameOnlyDefinedFlags can check the
// docs against flag.CommandLine without running main.
var (
	seed     = flag.Int64("seed", 1, "simulation seed (results are deterministic per seed)")
	only     = flag.String("only", "", "comma-separated experiment IDs to run (e.g. E2,E8); empty = all")
	list     = flag.Bool("list", false, "print the experiment registry and exit")
	skipSlow = flag.Bool("skip-slow", false, "skip the experiments marked slow in the registry (E1, E4, E7)")
	parallel = flag.Int("parallel", 1, "experiments to run concurrently (0 = GOMAXPROCS)")
)

func main() {
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

	want, err := selector(*only, *skipSlow)
	if err == nil {
		err = checkParallel(*parallel)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "eona-bench:", err)
		os.Exit(2)
	}
	var selected []eona.ExperimentDef
	for _, d := range eona.Experiments() {
		if want(d) {
			selected = append(selected, d)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "eona-bench: no experiments selected")
		os.Exit(2)
	}
	for _, tb := range eona.RunExperiments(selected, eona.ExperimentConfig{Seed: *seed}, *parallel) {
		fmt.Println(tb.String())
	}
}

// selector builds the experiment filter from the -only and -skip-slow
// flags; the slow set comes from the registry, not a local list. An -only ID
// the registry does not hold is an error that names it.
func selector(only string, skipSlow bool) (func(d eona.ExperimentDef) bool, error) {
	selected := map[string]bool{}
	var unknown []string
	if only != "" {
		for _, id := range strings.Split(only, ",") {
			id = strings.ToUpper(strings.TrimSpace(id))
			if _, ok := eona.LookupExperiment(id); !ok {
				unknown = append(unknown, fmt.Sprintf("%q", id))
			}
			selected[id] = true
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("-only names unknown experiments %s (see -list)", strings.Join(unknown, ", "))
	}
	return func(d eona.ExperimentDef) bool {
		if len(selected) > 0 {
			return selected[d.ID]
		}
		return !(skipSlow && d.Slow)
	}, nil
}

// checkParallel rejects a negative -parallel; 0 means GOMAXPROCS.
func checkParallel(n int) error {
	if n < 0 {
		return fmt.Errorf("-parallel must be 0 (GOMAXPROCS) or more, got %d", n)
	}
	return nil
}
