package main

import (
	"reflect"
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

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("-drivers", "1, 2,4,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Errorf("parseCounts = %v, %v; want [1 2 4 8]", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "two", "4,"} {
		if bad == "4," {
			// Trailing commas are tolerated.
			if _, err := parseCounts("-drivers", bad); err != nil {
				t.Errorf("parseCounts(%q) rejected: %v", bad, err)
			}
			continue
		}
		if _, err := parseCounts("-drivers", bad); err == nil {
			t.Errorf("parseCounts(%q) accepted", bad)
		}
	}
}
