package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"eona/internal/core"
	"eona/internal/netsim"
)

// segBytes reads every segment of a finished journal, in order.
func segBytes(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, len(segs))
	for i, name := range segs {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		data[i] = b
	}
	return data
}

// frameBoundaries returns every valid cut offset inside one segment that
// lies on a frame boundary: just after the magic, and after each frame.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	bounds := []int{len(segMagic)}
	off := len(segMagic)
	for {
		_, _, next, err := scanFrame(data, off)
		if err != nil {
			if err != errEOF {
				t.Fatalf("full segment scans torn: %v", err)
			}
			return bounds
		}
		bounds = append(bounds, next)
		off = next
	}
}

// writeCrashCopy materializes the journal as a crash at (seg, off) would
// have left it: all earlier segments complete, segment seg cut at off,
// later segments nonexistent (the write head had not reached them).
func writeCrashCopy(t *testing.T, segs [][]byte, seg, off int) string {
	t.Helper()
	dir := t.TempDir()
	for i := 0; i < seg; i++ {
		if err := os.WriteFile(filepath.Join(dir, segName(i)), segs[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segName(seg)), segs[seg][:off], 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// checkCrashRecovery recovers a crash copy and pins the durability
// contract: recovery never errors, the op prefix it yields replays — via
// snapshot + catch-up when a snapshot survived — to a state bit-identical
// to a from-scratch serial replay of that prefix, and every digest matches
// what the uninterrupted run recorded (MaterializeAt verifies per op).
// It also pins the checkpoint/offset invariants: a surviving checkpoint's
// offset never exceeds the recovered stream, offsets are nondecreasing per
// folder, and a checkpoint never claims coverage of ingests that did not
// survive below it (the fold-then-checkpoint append order makes the offset
// a true low-water mark).
func checkCrashRecovery(t *testing.T, crashDir string, totalOps, totalIngests int) {
	t.Helper()
	rec, err := Recover(crashDir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rec.Ops) > totalOps {
		t.Fatalf("recovered %d ops from a prefix of a %d-op run", len(rec.Ops), totalOps)
	}
	if len(rec.Ingests) > totalIngests {
		t.Fatalf("recovered %d ingests from a prefix of a %d-ingest run", len(rec.Ingests), totalIngests)
	}
	// The surviving ingests must be an exact prefix of the appended
	// sequence (append order, no holes).
	for i, ir := range rec.Ingests {
		if want := fmt.Sprintf("crash-%03d", i); ir.SessionID != want {
			t.Fatalf("ingest %d is %q, want prefix order %q", i, ir.SessionID, want)
		}
	}
	for name, cps := range rec.Checkpoints {
		prev := uint64(0)
		for i, cp := range cps {
			if cp.Offset > uint64(len(rec.Stream)) {
				t.Fatalf("checkpoint %q[%d] offset %d beyond stream %d", name, i, cp.Offset, len(rec.Stream))
			}
			if cp.Offset < prev {
				t.Fatalf("checkpoint %q[%d] offset %d below predecessor %d", name, i, cp.Offset, prev)
			}
			prev = cp.Offset
			// The crashfold state records how many ingests the checkpoint
			// covers; all of them must have survived below it.
			if name == "crashfold" {
				claimed, err := strconv.Atoi(string(cp.State))
				if err != nil {
					t.Fatalf("checkpoint %q[%d] state %q: %v", name, i, cp.State, err)
				}
				if claimed > len(rec.Ingests) {
					t.Fatalf("checkpoint %q[%d] covers %d ingests, only %d survived", name, i, claimed, len(rec.Ingests))
				}
			}
		}
	}
	if rec.Topo == nil {
		// Cut before the topology record finished: nothing to rebuild.
		if len(rec.Ops) != 0 {
			t.Fatalf("ops recovered without a topology: %d", len(rec.Ops))
		}
		return
	}
	got, _, err := rec.MaterializeAt(len(rec.Ops))
	if err != nil {
		t.Fatalf("recover network: %v", err)
	}
	mirror := netsim.NewNetwork(rec.Topo.Build())
	ops := make([]netsim.Op, len(rec.Ops))
	for i, or := range rec.Ops {
		ops[i] = or.Op
	}
	if err := netsim.Replay(mirror, ops); err != nil {
		t.Fatalf("mirror replay: %v", err)
	}
	requireSameNetworks(t, "recovered vs uninterrupted prefix", got, mirror)
}

// TestCrashAtEveryRecordBoundary is the crash-injection sweep: on every
// topology fixture, with and without snapshots, simulate a kill at every
// record boundary of the journal — plus seeded random mid-record offsets —
// and require recovery to rebuild a state bit-identical to the
// uninterrupted run at that point.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	for name, build := range fixtures() {
		for _, snapEvery := range []int{0, 8} {
			build, snapEvery := build, snapEvery
			sub := name + "/snap0"
			if snapEvery > 0 {
				sub = name + "/snap8"
			}
			t.Run(sub, func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				// Small segments force rotation, so cuts land in every
				// segment position; SyncNever keeps the sweep fast (sync
				// policy does not change the byte stream).
				w, err := Open(Config{Dir: dir, SegmentBytes: 2 << 10, Sync: SyncNever})
				if err != nil {
					t.Fatal(err)
				}
				net, paths, ts := build()
				if err := w.AppendTopology(ts); err != nil {
					t.Fatal(err)
				}
				_, ops := driveJournaled(t, w, net, paths, int64(31+snapEvery), snapEvery)
				// Tail of interleaved ingests and projection checkpoints, so
				// the sweep also cuts inside and between recIngest/recProjCkpt
				// frames. Each checkpoint's state records the ingest count it
				// covers — the offset-commit invariant checkCrashRecovery
				// verifies on every prefix.
				ingests := 0
				for cr := 0; cr < 3; cr++ {
					for k := 0; k < 4; k++ {
						err := w.AppendIngest(core.QoERecord{
							SessionID: fmt.Sprintf("crash-%03d", ingests),
							AppP:      "appp-crash", ClientISP: "isp-a",
							CDN: "cdnX", Cluster: "c1", Score: float64(ingests),
						})
						if err != nil {
							t.Fatal(err)
						}
						ingests++
					}
					if err := w.AppendCheckpoint("crashfold", []byte(strconv.Itoa(ingests))); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				segs := segBytes(t, dir)
				if len(segs) < 2 {
					t.Fatalf("want rotation in the sweep, got %d segment(s)", len(segs))
				}

				rng := rand.New(rand.NewSource(int64(len(ops))))
				for si, data := range segs {
					bounds := frameBoundaries(t, data)
					cuts := append([]int(nil), bounds...)
					// A few seeded mid-record offsets per segment: strictly
					// inside a frame, torn tail guaranteed.
					for k := 0; k < 5 && len(bounds) > 1; k++ {
						bi := rng.Intn(len(bounds) - 1)
						lo, hi := bounds[bi], bounds[bi+1]
						cuts = append(cuts, lo+1+rng.Intn(hi-lo-1))
					}
					// And the degenerate cuts: empty file, mid-magic.
					cuts = append(cuts, 0, len(segMagic)-2)
					for _, off := range cuts {
						crashDir := writeCrashCopy(t, segs, si, off)
						checkCrashRecovery(t, crashDir, len(ops), ingests)
					}
				}
			})
		}
	}
}

// TestOpenRepairsTornTail: Open on a crashed journal truncates the torn
// tail in place and the repaired journal accepts appends that a second
// recovery then sees — the full crash/restart/continue cycle.
func TestOpenRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["line"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	driveJournaled(t, w, net, paths, 8, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segBytes(t, dir)
	last := len(segs) - 1
	bounds := frameBoundaries(t, segs[last])
	// Tear mid-way through the last segment's final frame.
	tearAt := bounds[len(bounds)-2] + 3
	path := filepath.Join(dir, segName(last))
	if err := os.Truncate(path, int64(tearAt)); err != nil {
		t.Fatal(err)
	}

	before, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if before.TruncatedBytes == 0 {
		t.Fatal("tear not visible to recovery")
	}

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Ops(); got != uint64(len(before.Ops)) {
		t.Fatalf("repaired op count %d, recovery saw %d", got, len(before.Ops))
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(bounds[len(bounds)-2]) {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", st.Size(), bounds[len(bounds)-2])
	}
	if err := w2.AppendIngest(core.QoERecord{SessionID: "after-repair", Score: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.TruncatedBytes != 0 || len(after.Ops) != len(before.Ops) || len(after.Ingests) != len(before.Ingests)+1 {
		t.Fatalf("post-repair recovery: %d ops, %d ingests (before: %d), truncated %d",
			len(after.Ops), len(after.Ingests), len(before.Ingests), after.TruncatedBytes)
	}
}

// TestOtherVersionSegmentIsReportedNotRepaired: a segment whose magic matches
// up to the version byte is an intact log in a format this build cannot
// verify. It used to scan as "torn at offset 0", which Open's tail repair
// answers by truncating the file to nothing. Recover, Open and scanSegment
// must each report ErrVersion, and Open must leave the bytes alone — also
// when the foreign segment follows a readable one.
func TestOtherVersionSegmentIsReportedNotRepaired(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["line"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	driveJournaled(t, w, net, paths, 8, 4)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segBytes(t, dir)
	if len(segs) < 2 {
		t.Fatalf("want a rotated journal, got %d segment(s)", len(segs))
	}
	for _, seg := range []int{0, len(segs) - 1} {
		// '2' is the format before this one: intact frames it cannot read.
		prev := append([]byte(nil), segs[seg]...)
		prev[len(segMagic)-1] = '2'
		if _, err := scanSegment(prev, nil); !errors.Is(err, ErrVersion) || errors.Is(err, ErrTorn) {
			t.Fatalf("segment %d: scanSegment = %v, want ErrVersion and not ErrTorn", seg, err)
		}
		path := filepath.Join(dir, segName(seg))
		if err := os.WriteFile(path, prev, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Recover(dir); !errors.Is(err, ErrVersion) {
			t.Fatalf("segment %d: Recover = %v, want ErrVersion", seg, err)
		}
		if _, err := Open(Config{Dir: dir}); !errors.Is(err, ErrVersion) {
			t.Fatalf("segment %d: Open = %v, want ErrVersion", seg, err)
		}
		after := segBytes(t, dir)
		if len(after) != len(segs) {
			t.Fatalf("segment %d: Open left %d segments of %d", seg, len(after), len(segs))
		}
		for i, got := range after {
			want := segs[i]
			if i == seg {
				want = prev
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("segment %d: Open changed segment %d (%d bytes, was %d)", seg, i, len(got), len(want))
			}
		}
		if err := os.WriteFile(path, segs[seg], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Recover(dir); err != nil {
		t.Fatalf("restored journal: %v", err)
	}
}

// TestTornMiddleSegmentDropsLater: a tear in a non-final segment (crash
// mid-rotation, or later corruption) invalidates everything after it —
// Recover counts the dropped segments and Open deletes them.
func TestTornMiddleSegmentDropsLater(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 1 << 10, Sync: SyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["mesh"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	driveJournaled(t, w, net, paths, 21, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d", len(segs))
	}
	// Corrupt a frame in the middle segment by flipping a payload byte
	// (CRC now fails there).
	mid := len(segs) / 2
	path := filepath.Join(dir, segs[mid])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+frameHeader] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DroppedSegments != len(segs)-mid-1 {
		t.Fatalf("dropped %d segments, want %d", rec.DroppedSegments, len(segs)-mid-1)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("tear bytes not counted")
	}
	if _, _, err := rec.MaterializeAt(len(rec.Ops)); err != nil {
		t.Fatalf("prefix before mid-log tear must recover: %v", err)
	}

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	left, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != mid+1 {
		t.Fatalf("Open left %d segments, want %d", len(left), mid+1)
	}
	if got := w2.Ops(); got != uint64(len(rec.Ops)) {
		t.Fatalf("repaired op count %d, recovery saw %d", got, len(rec.Ops))
	}
}
