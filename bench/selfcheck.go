package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// invoke runs this binary once, untraced, and returns the end-to-end metrics
// of its last output line.
func invoke(workload string, seed int64, seconds float64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out, err := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0").Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var doc document
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		return nil, err
	}
	if !doc.Correct {
		return nil, fmt.Errorf("%s seed %d: %d of %d failed", workload, seed, doc.Failed, doc.Attempted)
	}
	values := map[string]float64{}
	for name, m := range doc.Metrics {
		values[name] = m.Value
	}
	return values, nil
}

// spread is the distance between the first and third quartile as a share of
// the median, with the quartiles Python's statistics.quantiles(n=4) gives.
func spread(vs []float64) float64 {
	n := float64(len(vs))
	at := func(q float64) float64 {
		pos := q*(n+1) - 1
		pos = max(0, min(n-1, pos))
		lo := int(pos)
		if lo >= len(vs)-1 {
			return vs[len(vs)-1]
		}
		return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
	}
	sort.Float64s(vs)
	return (at(0.75) - at(0.25)) / at(0.5)
}

// selfCheck is the A/A evidence for the bounds (the harness's own table, which
// the test holds equal to BENCHMARK.json): two sets of runs invocations of
// this same binary per workload, a different seed each. It fails when a
// metric's second median is worse than its first by more than the bound, or
// when a metric other than setup_s spreads wider than its bound within a set.
func selfCheck(selected []workload, runs int, seed int64, seconds float64) int {
	bad := 0
	for _, w := range selected {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < runs; i++ {
				values, err := invoke(w.name, seed+int64(s*runs+i), seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
					return 1
				}
				for name, v := range values {
					sets[s][name] = append(sets[s][name], v)
				}
			}
		}
		fmt.Printf("%-10s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound")
		for _, m := range endToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			sa, sb := spread(sets[0][m.Name]), spread(sets[1][m.Name])
			verdict := ""
			if worse > m.Bound || (m.Name != "setup_s" && max(sa, sb) > m.Bound) {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-10s %-16s %12.4f %12.4f %+8.3f %8.3f %8.3f %6.2f%s\n", w.name, m.Name, a, b, worse, sa, sb, m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d (metric, workload) pairs exceed their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every (metric, workload) pair is within its bound")
	return 0
}
