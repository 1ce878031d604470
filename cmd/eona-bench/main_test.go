package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"eona"
)

// def returns the registry entry for an ID; the selector consumes
// definitions now, so the tests exercise it through the real registry.
func def(t *testing.T, id string) eona.ExperimentDef {
	t.Helper()
	d, ok := eona.LookupExperiment(id)
	if !ok {
		t.Fatalf("%s not in registry", id)
	}
	return d
}

// mustSelect is selector for flag values it must accept.
func mustSelect(t *testing.T, only string, skipSlow bool) func(eona.ExperimentDef) bool {
	t.Helper()
	want, err := selector(only, skipSlow)
	if err != nil {
		t.Fatalf("selector(%q, %v): %v", only, skipSlow, err)
	}
	return want
}

func TestSelectorAll(t *testing.T) {
	want := mustSelect(t, "", false)
	for _, id := range []string{"E1", "E2", "E7", "E14"} {
		if !want(def(t, id)) {
			t.Errorf("default selector excluded %s", id)
		}
	}
}

func TestSelectorOnly(t *testing.T) {
	want := mustSelect(t, "e2, E8", false)
	if !want(def(t, "E2")) || !want(def(t, "E8")) {
		t.Error("-only selections excluded")
	}
	if want(def(t, "E1")) || want(def(t, "E3")) {
		t.Error("unselected experiments included")
	}
}

func TestSelectorSkipSlow(t *testing.T) {
	want := mustSelect(t, "", true)
	for _, d := range eona.Experiments() {
		if d.Slow && want(d) {
			t.Errorf("-skip-slow included %s", d.ID)
		}
	}
	if !want(def(t, "E2")) {
		t.Error("-skip-slow excluded a fast experiment")
	}
}

func TestSelectorOnlyOverridesSkipSlow(t *testing.T) {
	want := mustSelect(t, "E1", true)
	if !want(def(t, "E1")) {
		t.Error("-only E1 should include E1 even with -skip-slow")
	}
}

// An -only ID the registry does not hold is rejected by name, not dropped.
func TestSelectorRejectsUnknownIDs(t *testing.T) {
	for only, named := range map[string][]string{
		"E2,E99":   {`"E99"`},
		"e16, x":   {`"E16"`, `"X"`},
		"E1,,E2":   {`""`},
		"E0":       {`"E0"`},
		"E2 , E15": nil,
	} {
		_, err := selector(only, false)
		if named == nil {
			if err != nil {
				t.Errorf("-only %q: rejected: %v", only, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("-only %q: accepted, want the unknown IDs named", only)
			continue
		}
		for _, id := range named {
			if !strings.Contains(err.Error(), id) {
				t.Errorf("-only %q: error %q does not name %s", only, err, id)
			}
		}
	}
}

func TestCheckParallel(t *testing.T) {
	for n, ok := range map[int]bool{-1: false, -8: false, 0: true, 1: true, 4: true} {
		if err := checkParallel(n); (err == nil) != ok {
			t.Errorf("-parallel %d: err = %v, want accepted = %v", n, err, ok)
		}
	}
}

// TestDocsNameOnlyDefinedFlags scans the docs for `eona-bench … -flag`
// invocations and fails on any flag this binary does not define, so a
// deleted flag cannot live on in prose that quotes its output.
func TestDocsNameOnlyDefinedFlags(t *testing.T) {
	check := func(where, text string) {
		for _, tok := range strings.Fields(text) {
			tok = strings.Trim(tok, "`[]().,;:'\"")
			if !flagToken.MatchString(tok) {
				continue
			}
			if flag.Lookup(tok[1:]) == nil {
				t.Errorf("%s names undefined flag %s", where, tok)
			}
		}
	}

	// The package doc is about this binary throughout: every flag-shaped
	// token in it counts.
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage main")
	if !ok {
		t.Fatal("main.go: no package clause")
	}
	check("main.go package doc", strings.ReplaceAll(doc, "//", " "))

	// In the markdown docs a flag counts when it follows "eona-bench" on
	// the same line — up to the closing backtick when the mention sits in
	// a code span, else to the end of the line.
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		body, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(body), "\n") {
			for {
				before, after, found := strings.Cut(line, "eona-bench")
				if !found {
					break
				}
				line = after
				args := after
				if strings.Count(before, "`")%2 == 1 {
					args, _, _ = strings.Cut(after, "`")
				}
				check(fmt.Sprintf("%s:%d", name, i+1), args)
			}
		}
	}
}

var flagToken = regexp.MustCompile(`^-[a-z][a-z-]*$`)

// TestDocsNameOnlyRegisteredExperiments keeps the experiment docs and the
// registry in step: every `## E<n>` heading in EXPERIMENTS.md and every
// `| E<n> |` table row in README.md and DESIGN.md names a registered
// experiment, and every registered experiment has its EXPERIMENTS.md
// heading.
func TestDocsNameOnlyRegisteredExperiments(t *testing.T) {
	docs := map[string]*regexp.Regexp{
		"EXPERIMENTS.md": regexp.MustCompile(`(?m)^## (E\d+)\b`),
		"README.md":      regexp.MustCompile(`(?m)^\| (E\d+) \|`),
		"DESIGN.md":      regexp.MustCompile(`(?m)^\| (E\d+) \|`),
	}
	headed := map[string]bool{}
	for name, re := range docs {
		body, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(body), -1) {
			if _, ok := eona.LookupExperiment(m[1]); !ok {
				t.Errorf("%s names unregistered experiment %s", name, m[1])
			}
			if name == "EXPERIMENTS.md" {
				headed[m[1]] = true
			}
		}
	}
	for _, d := range eona.Experiments() {
		if !headed[d.ID] {
			t.Errorf("EXPERIMENTS.md has no `## %s` heading", d.ID)
		}
	}
}
