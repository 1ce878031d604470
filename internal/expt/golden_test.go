package expt

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed1.golden from the current code")

// TestSeed1TablesGolden pins every simulated experiment's seed-1 table byte
// for byte: a change that moves any printed number fails here. E7 is a
// wall-clock measurement and is left out. Regenerate with
//
//	go test ./internal/expt -run TestSeed1TablesGolden -update
//
// only when a change is meant to alter simulation results, and say which
// rows moved and why.
func TestSeed1TablesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse multiply-adds, which moves the last
		// printed digit of some cells.
		t.Skipf("golden tables are recorded on amd64, not %s", runtime.GOARCH)
	}
	var defs []Definition
	for _, d := range Definitions() {
		if d.ID != "E7" {
			defs = append(defs, d)
		}
	}
	var b strings.Builder
	for _, tb := range RunConcurrent(defs, Config{Seed: 1}, 0) {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	got := b.String()

	path := filepath.Join("testdata", "seed1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("seed-1 tables differ from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestExperimentsDocMatchesGolden checks EXPERIMENTS.md against the golden:
// every numeric cell of a table under an "## En" heading must round, at its
// printed precision, from some numeric cell of En's table in
// testdata/seed1.golden. A "%" cell may also match 100× a fraction. E7's
// rows are wall-clock and exempt. It reads files only, so it runs on every
// architecture.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}

	// The golden's numeric cells per experiment: tables are separated by
	// runs of two or more spaces, and notes carry no cells.
	gaps := regexp.MustCompile(`\s{2,}`)
	want := map[string][]float64{}
	id := ""
	for _, line := range strings.Split(string(golden), "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			id, _, _ = strings.Cut(rest, " ")
			continue
		}
		if strings.HasPrefix(line, "note:") || strings.HasPrefix(line, "---") {
			continue
		}
		for _, cell := range gaps.Split(strings.TrimSpace(line), -1) {
			if v, err := strconv.ParseFloat(cell, 64); err == nil {
				want[id] = append(want[id], v)
			}
		}
	}

	heading := regexp.MustCompile(`^## (E\d+) `)
	number := regexp.MustCompile(`^-?\d+(\.(\d+))?(%?)$`)
	thousands := regexp.MustCompile(`(\d),(\d{3})`)
	id = ""
	checked := 0
	for _, line := range strings.Split(string(doc), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			id = m[1]
			continue
		}
		if strings.HasPrefix(line, "## ") {
			id = ""
		}
		if id == "" || id == "E7" || !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			continue
		}
		for _, cell := range strings.Split(strings.Trim(line, "|"), "|") {
			cell = strings.ReplaceAll(strings.TrimSpace(cell), "**", "")
			cell = strings.TrimSuffix(thousands.ReplaceAllString(cell, "$1$2"), " s")
			m := number.FindStringSubmatch(cell)
			if m == nil {
				continue
			}
			v, _ := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			tol := 0.5*math.Pow(10, -float64(len(m[2]))) + 1e-9
			found := false
			for _, g := range want[id] {
				if math.Abs(g-v) <= tol || (m[3] == "%" && math.Abs(100*g-v) <= tol) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("EXPERIMENTS.md %s: cell %q rounds from no cell of the golden's %s table", id, cell, id)
			}
			checked++
		}
	}
	if len(want) == 0 || checked == 0 {
		t.Fatalf("parsed %d golden tables and checked %d doc cells: the formats drifted from this parser", len(want), checked)
	}
}
