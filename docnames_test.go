package eona_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// testFuncRE matches a test, fuzz, benchmark or example declaration.
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	// docTestRE matches a backquoted test name in prose; a trailing * makes
	// it a prefix, and a /sub suffix names a subtest of the named function.
	docTestRE = regexp.MustCompile("`((?:Test|Fuzz|Benchmark|Example)\\w*)(\\*|/[^`]*)?`")
	// anchoredRE matches an anchored -run or -fuzz pattern naming one
	// function.
	anchoredRE = regexp.MustCompile(`\^((?:Test|Fuzz|Benchmark|Example)\w*)\$`)
)

// TestDocsAndScriptsNameExistingTests fails on a test name that the docs
// or the gate scripts cite but no _test.go file declares. `go test -run
// '^X$'` and `-fuzz '^X$'` exit 0 when nothing matches, so a renamed test
// would otherwise drop silently out of scripts/check.sh's repeated race and
// fuzz steps, and out of the docs that point readers at it. It reads files
// only: every backquoted name in DESIGN.md, README.md and EXPERIMENTS.md
// (`TestX*` means some test starts with TestX), and every anchored ^Name$
// in scripts/check.sh and the Makefile.
func TestDocsAndScriptsNameExistingTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(declared))
	for n := range declared {
		names = append(names, n)
	}
	sort.Strings(names)
	exists := func(name string, prefix bool) bool {
		if !prefix {
			return declared[name]
		}
		i := sort.SearchStrings(names, name)
		return i < len(names) && strings.HasPrefix(names[i], name)
	}

	check := func(file string, re *regexp.Regexp) int {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ms := re.FindAllStringSubmatch(string(src), -1)
		for _, m := range ms {
			if prefix := len(m) > 2 && m[2] == "*"; !exists(m[1], prefix) {
				t.Errorf("%s names %s, which no _test.go file declares", file, m[0])
			}
		}
		return len(ms)
	}
	cited := 0
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		cited += check(doc, docTestRE)
	}
	for _, script := range []string{"scripts/check.sh", "Makefile"} {
		cited += check(script, anchoredRE)
	}
	// A scan that finds nothing checks nothing.
	if len(declared) == 0 || cited == 0 {
		t.Fatalf("found %d declared and %d cited names", len(declared), cited)
	}
}
