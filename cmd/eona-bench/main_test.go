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

func TestSelectorAll(t *testing.T) {
	want := selector("", false)
	for _, id := range []string{"E1", "E2", "E7", "E14"} {
		if !want(def(t, id)) {
			t.Errorf("default selector excluded %s", id)
		}
	}
}

func TestSelectorOnly(t *testing.T) {
	want := selector("e2, E8", false)
	if !want(def(t, "E2")) || !want(def(t, "E8")) {
		t.Error("-only selections excluded")
	}
	if want(def(t, "E1")) || want(def(t, "E3")) {
		t.Error("unselected experiments included")
	}
}

func TestSelectorSkipSlow(t *testing.T) {
	want := selector("", true)
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
	want := selector("E1", true)
	if !want(def(t, "E1")) {
		t.Error("-only E1 should include E1 even with -skip-slow")
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
