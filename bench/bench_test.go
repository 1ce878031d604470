package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// contractDoc is BENCHMARK.json as the driver reads it.
type contractDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readContract(t *testing.T) contractDoc {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc contractDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestContractMatchesHarness holds BENCHMARK.json and the harness's own metric
// tables together, and checks the limits the driver refuses a file over.
func TestContractMatchesHarness(t *testing.T) {
	doc := readContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, harness runs %d", len(doc.Workloads), len(workloads))
	}
	known := map[string]bool{anyWorkload: true}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, harness has %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
		known[w.Name] = true
	}
	if doc.RunSeconds < fullRunSeconds || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d: op_p99_ms needs a full-length run (>= %d s)", doc.RunSeconds, fullRunSeconds)
	}

	check := func(kind string, got []contractMetric, want []metricSpec, bounded bool, limit int) map[string]bool {
		names := map[string]bool{}
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, harness reports %d, limit %d", kind, len(got), len(want), limit)
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, harness has %+v", kind, i, m, w)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || names[m.Name] {
				t.Errorf("%s %s: bad or repeated name or unit %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound != w.Bound || *m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v, harness has %v", kind, m.Name, m.Bound, w.Bound)
			}
			names[m.Name] = true
		}
		return names
	}
	e2e := check("end_to_end", doc.EndToEnd, endToEnd, true, 16)
	check("per_layer", doc.PerLayer, perLayer, false, 128)
	if !e2e["setup_s"] {
		t.Error("end_to_end has no setup_s")
	}
	// Every per-layer metric names the workload that measures it and the
	// end-to-end metric it is predicted to move.
	for _, m := range perLayer {
		if !known[m.From] || !e2e[m.Moves] {
			t.Errorf("per-layer %s: from %q, moves %q", m.Name, m.From, m.Moves)
		}
	}
}

// requireDocument checks a run's last line against the contract's metric list.
func requireDocument(t *testing.T, what string, doc document, want []contractMetric) {
	t.Helper()
	if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, doc.Correct, doc.Attempted, doc.Failed)
	}
	if len(doc.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, contract lists %d", what, len(doc.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := doc.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s: got %+v (present %v), want unit %s", what, m.Name, got, ok, m.Unit)
		}
	}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// validates what they emit against BENCHMARK.json.
func TestWorkloadsSmoke(t *testing.T) {
	contract := readContract(t)
	t.Setenv("TMPDIR", t.TempDir())
	const seconds = 0.3

	for _, w := range workloads[1:] {
		res, err := w.run(runConfig{seed: 7, seconds: seconds, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		doc := report(w.name, endToEnd, res.e2e, res.attempted, res.failed)
		requireDocument(t, w.name+" untraced", doc, contract.EndToEnd)
		for name, m := range doc.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, name, m.Value)
			}
		}
	}

	// The traced run's reference pass is the untraced run of workloads[0].
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	doc, err := runTraced(workloads[0], 7, seconds*float64(len(workloads)+1), spans)
	if err != nil {
		t.Fatal(err)
	}
	requireDocument(t, "traced", doc, contract.PerLayer)
	if doc.Metrics["bench.spans"].Value <= 0 {
		t.Error("traced run recorded no spans")
	}

	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.ID == 0 || s.End < s.Start {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		seen[s.Workload] = true
	}
	if len(seen) != len(workloads) {
		t.Errorf("spans from %d workloads, want %d", len(seen), len(workloads))
	}
	if entries, _ := os.ReadDir(os.Getenv("TMPDIR")); len(entries) != 0 {
		t.Errorf("%d journal directories left behind", len(entries))
	}
}
