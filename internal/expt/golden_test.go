package expt

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
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
