package netsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestReplayUnknownFlowErrors is the regression test for the corrupt-log
// hole: Replay used to pass a nil handle into StopFlow/SetDemand/SetWeight/
// SetPath when an op referenced a FlowID the log never started, and the
// nil-handle no-op semantics silently swallowed the op — a corrupt or
// hand-edited log replayed "successfully" into the wrong state. Each kind
// must now fail with a descriptive per-op error.
func TestReplayUnknownFlowErrors(t *testing.T) {
	topo, p := line(100)
	ids := linkIDs(p)
	cases := map[string]Op{
		"stop":       {Kind: OpStop, Flow: 7},
		"set-demand": {Kind: OpSetDemand, Flow: 7, Value: 10},
		"set-weight": {Kind: OpSetWeight, Flow: 7, Value: 2},
		"set-path":   {Kind: OpSetPath, Flow: 7, Links: ids},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			n := NewNetwork(topo)
			ops := []Op{
				{Kind: OpStart, Flow: 0, Links: ids, Value: math.Inf(1), Tag: "a"},
				bad,
			}
			err := Replay(n, ops)
			if err == nil {
				t.Fatal("replay of an op referencing an unknown flow succeeded")
			}
			if !strings.Contains(err.Error(), "op 1") || !strings.Contains(err.Error(), "unknown flow 7") {
				t.Fatalf("error %q does not name the op index and unknown flow", err)
			}
		})
	}
}

// TestReplayerStepsMatchReplay pins that per-op stepping through a Replayer
// reaches the same final state as the one-shot Replay.
func TestReplayerStepsMatchReplay(t *testing.T) {
	build := sharedFixtures()["rails"]
	ops, want := driveSharedDeterministic(t, build, 11, 3, 4, 10)

	stepped, _ := build()
	r := NewReplayer(stepped)
	for i, op := range ops {
		if err := r.Apply(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if r.Applied() != len(ops) {
		t.Fatalf("Applied() = %d, want %d", r.Applied(), len(ops))
	}
	requireIdenticalNetworks(t, "stepped vs recorded", stepped, want)
}

// TestReplayerFromImportedState pins the snapshot + catch-up rule at the
// netsim level: export mid-run state, import it into a fresh network, and
// replay only the tail — the result must equal a full replay from scratch.
func TestReplayerFromImportedState(t *testing.T) {
	build := sharedFixtures()["e1"]
	ops, want := driveSharedDeterministic(t, build, 5, 4, 5, 8)
	if len(ops) < 10 {
		t.Fatalf("fixture produced only %d ops", len(ops))
	}
	cut := len(ops) / 2

	// Replay the prefix, export, import onto a fresh network, replay the
	// tail through a Replayer seeded with the imported handles.
	prefix, _ := build()
	if err := Replay(prefix, ops[:cut]); err != nil {
		t.Fatalf("prefix replay: %v", err)
	}
	st := prefix.ExportState()

	restored, _ := build()
	if err := restored.ImportState(st); err != nil {
		t.Fatalf("import: %v", err)
	}
	requireDigest(t, restored, "imported")
	r := NewReplayer(restored)
	for i, op := range ops[cut:] {
		if err := r.Apply(op); err != nil {
			t.Fatalf("tail op %d: %v", i, err)
		}
		requireDigest(t, restored, fmt.Sprintf("tail op %d", i))
	}
	requireIdenticalNetworks(t, "snapshot+tail vs full run", restored, want)
}
