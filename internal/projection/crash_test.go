package projection

import (
	"os"
	"path/filepath"
	"testing"

	"eona/internal/journal"
)

// TestProjectionCrashSweep cuts a projected journal at every frame boundary
// — including mid-checkpoint and between a checkpoint and its successor
// records — and requires that resuming from the surviving prefix always
// lands on read models identical to a from-scratch fold of that same
// prefix. This is the offset-commit crash contract: a lost checkpoint only
// costs refolding, never correctness, and a surviving checkpoint's offset
// never runs ahead of surviving data.
func TestProjectionCrashSweep(t *testing.T) {
	for name, build := range fixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			srcDir := t.TempDir()
			w, err := journal.Open(journal.Config{
				Dir: srcDir, Sync: journal.SyncNever, SegmentBytes: 4 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			qoe, hints, lu := newFolders()
			e, err := NewEngine(Config{Writer: w, CheckpointEvery: 8}, qoe, hints, lu)
			if err != nil {
				t.Fatal(err)
			}
			net, paths, ts := build()
			driveProjected(t, e, net, paths, ts, 5, 5, 6, 4)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			segs, err := journal.SegmentPaths(srcDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 2 {
				t.Fatalf("want a multi-segment journal for the sweep, got %d segments", len(segs))
			}
			cuts := 0
			for si, seg := range segs {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				for _, cut := range journal.FrameBoundaries(data) {
					checkProjectionCrash(t, segs, si, cut)
					cuts++
					// Also a torn frame: a cut strictly inside the next
					// record, which recovery must truncate away.
					if cut+5 < len(data) {
						checkProjectionCrash(t, segs, si, cut+5)
						cuts++
					}
				}
			}
			if cuts == 0 {
				t.Fatal("sweep produced no cuts")
			}
		})
	}
}

// checkProjectionCrash copies the journal truncated at (segment si, byte
// cut), dropping later segments — the crash image — then checks the resume
// invariant on it.
func checkProjectionCrash(t *testing.T, segs []string, si, cut int) {
	t.Helper()
	dir := t.TempDir()
	for i, seg := range segs {
		if i > si {
			break
		}
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if i == si {
			if cut > len(data) {
				cut = len(data)
			}
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(seg)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatalf("seg %d cut %d: recover: %v", si, cut, err)
	}

	// Arm 1: resume through the engine (checkpoint + tail).
	q1, h1, l1 := newFolders()
	eng1, err := NewEngine(Config{}, q1, h1, l1)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng1.Resume(rec)
	if err != nil {
		t.Fatalf("seg %d cut %d: resume: %v", si, cut, err)
	}

	// Arm 2: from-scratch fold of the surviving prefix.
	q2, h2, l2 := newFolders()
	scratch := []Folder{q2, h2, l2}
	for _, f := range scratch {
		if err := Fold(rec, f, len(rec.Stream)); err != nil {
			t.Fatalf("seg %d cut %d: fold: %v", si, cut, err)
		}
	}
	resumed := []Folder{q1, h1, l1}
	for i, f := range resumed {
		if dr, ds := StateDigest(f), StateDigest(scratch[i]); dr != ds {
			t.Fatalf("seg %d cut %d: folder %q resumed %016x != from-scratch %016x (tail %d)",
				si, cut, f.Name(), dr, ds, stats.TailFolded[f.Name()])
		}
	}

	// Offset-commit invariant: every surviving checkpoint's offset points
	// inside the surviving stream (the frame is appended after the data it
	// covers, so a crash can never leave an offset dangling past the tear).
	for fname, cps := range rec.Checkpoints {
		for _, cp := range cps {
			if int(cp.Offset) > len(rec.Stream) {
				t.Fatalf("seg %d cut %d: folder %q checkpoint offset %d beyond surviving stream %d",
					si, cut, fname, cp.Offset, len(rec.Stream))
			}
		}
	}
}
