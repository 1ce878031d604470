package expt

import "testing"

func TestRegistryShape(t *testing.T) {
	defs := Definitions()
	if len(defs) != 15 {
		t.Fatalf("registry has %d definitions, want 15", len(defs))
	}
	slow := map[string]bool{"E1": true, "E4": true, "E7": true}
	for i, d := range defs {
		if d.ID == "" || d.Title == "" || d.Run == nil {
			t.Fatalf("definition %d incomplete: %+v", i, d)
		}
		if d.Slow != slow[d.ID] {
			t.Errorf("%s Slow = %v, want %v", d.ID, d.Slow, slow[d.ID])
		}
		if want := "E" + itoa(i+1); d.ID != want {
			t.Errorf("definition %d has ID %s, want %s (suite order)", i, d.ID, want)
		}
	}
	if _, ok := Lookup("E7"); !ok {
		t.Error("Lookup(E7) missed")
	}
	if _, ok := Lookup("E16"); ok {
		t.Error("Lookup(E16) hit a ghost experiment")
	}
	if d, _ := Lookup("E4"); d.ID != "E4" || !d.Slow || d.Run == nil {
		t.Errorf("Lookup(E4) dropped identity: %+v", d)
	}
}

// TestRegistryMatchesDeprecatedWrappers pins the deprecation contract: the
// registry path renders the same table as the original RunE* entry points
// (checked on the fast, deterministic experiments).
func TestRegistryMatchesDeprecatedWrappers(t *testing.T) {
	const seed = 5
	direct := map[string]string{
		"E2":  RunE2(seed).Table().String(),
		"E8":  RunE8(seed).Table().String(),
		"E12": RunE12(seed).Table().String(),
	}
	for id, want := range direct {
		d, ok := Lookup(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		if got := d.Run(Config{Seed: seed}); got.String() != want {
			t.Errorf("%s: registry table differs from direct RunE* call", id)
		}
	}
}

func itoa(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}
