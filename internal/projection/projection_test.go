package projection

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/journal"
	"eona/internal/netsim"
)

// fixtures builds the projection test topologies through the public netsim
// API — the same three shapes the journal crash sweep runs over.
func fixtures() map[string]func() (*netsim.Network, []netsim.Path, netsim.TopoState) {
	build := func(mk func(t *netsim.Topology) []netsim.Path) func() (*netsim.Network, []netsim.Path, netsim.TopoState) {
		return func() (*netsim.Network, []netsim.Path, netsim.TopoState) {
			topo := netsim.NewTopology()
			paths := mk(topo)
			return netsim.NewNetwork(topo), paths, netsim.ExportTopology(topo)
		}
	}
	return map[string]func() (*netsim.Network, []netsim.Path, netsim.TopoState){
		"line": build(func(t *netsim.Topology) []netsim.Path {
			a := t.AddLink("a", "b", 100, time.Millisecond, "")
			b := t.AddLink("b", "c", 80, time.Millisecond, "")
			c := t.AddLink("c", "d", 120, time.Millisecond, "")
			return []netsim.Path{{a, b, c}, {a}, {b, c}}
		}),
		"hub": build(func(t *netsim.Topology) []netsim.Path {
			hub := t.AddLink("hubA", "hubB", 1000, time.Millisecond, "")
			ps := []netsim.Path{{hub}}
			for _, n := range []string{"a", "b", "c", "d"} {
				l := t.AddLink(netsim.NodeID(n), "hubA", 90, time.Millisecond, "")
				ps = append(ps, netsim.Path{l}, netsim.Path{l, hub})
			}
			return ps
		}),
		"mesh": build(func(t *netsim.Topology) []netsim.Path {
			ab := t.AddLink("a", "b", 150, time.Millisecond, "core")
			bc := t.AddLink("b", "c", 60, 2*time.Millisecond, "edge")
			ac := t.AddLink("a", "c", 200, time.Millisecond, "express")
			cd := t.AddLink("c", "d", 90, time.Millisecond, "")
			return []netsim.Path{{ab, bc}, {ac}, {ab, bc, cd}, {ac, cd}, {bc}}
		}),
	}
}

// qoeCfg is the collector configuration every projection test uses; noise
// off so query outputs are directly comparable.
func qoeCfg() core.CollectorConfig {
	return core.CollectorConfig{AppP: "appp-test", Window: 5 * time.Minute, Seed: 42}
}

// newFolders builds the read-model set a node folds: QoE, Hints and
// LinkUtil.
func newFolders() (*QoE, *Hints, *LinkUtil) {
	return NewQoE(qoeCfg()), NewHints(), NewLinkUtil()
}

// synthIngest builds the i'th deterministic session record.
func synthIngest(rng *rand.Rand, i int) core.QoERecord {
	isps := []string{"isp-a", "isp-b"}
	cdns := []string{"cdnX", "cdnY"}
	return core.QoERecord{
		SessionID:       "s-" + string(rune('a'+i%26)),
		Timestamp:       time.Duration(i) * time.Second,
		AppP:            "appp-test",
		ClientISP:       isps[rng.Intn(len(isps))],
		CDN:             cdns[rng.Intn(len(cdns))],
		Cluster:         "c1",
		Score:           40 + 60*rng.Float64(),
		BufferingRatio:  rng.Float64() / 10,
		AvgBitrateBps:   2e6 + 1e6*rng.Float64(),
		StartupDelay:    time.Duration(rng.Intn(3000)) * time.Millisecond,
		PlayTime:        time.Duration(60+rng.Intn(600)) * time.Second,
		BitrateSwitches: rng.Intn(4),
		CDNSwitches:     rng.Intn(2),
		Abandoned:       rng.Intn(8) == 0,
	}
}

// driveProjected journals a seeded mixed workload through an Engine: netsim
// ops from a deterministic SharedNetwork (with periodic snapshots),
// interleaved with ingests, polls and a fault event between commit rounds.
// Returns the live final network.
func driveProjected(t testing.TB, e *Engine, net *netsim.Network, paths []netsim.Path, ts netsim.TopoState, seed int64, rounds, opsPerRound, snapEvery int) *netsim.Network {
	t.Helper()
	if err := e.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	s := netsim.NewShared(net, netsim.SharedConfig{
		Deterministic: true, Journal: e, SnapshotEvery: snapEvery,
	})
	drv := s.Driver(1)
	rng := rand.New(rand.NewSource(seed))
	var handles []*netsim.Flow
	ingested := 0
	for r := 0; r < rounds; r++ {
		for k := 0; k < opsPerRound; k++ {
			op := rng.Intn(6)
			if len(handles) == 0 {
				op = 0
			}
			pi := rng.Intn(len(paths))
			val := float64(1 + rng.Intn(300))
			if rng.Intn(6) == 0 {
				val = math.Inf(1)
			}
			switch op {
			case 0:
				handles = append(handles, drv.StartFlow(paths[pi], val, "proj"))
			case 1:
				drv.StopFlow(handles[rng.Intn(len(handles))])
			case 2:
				drv.SetDemand(handles[rng.Intn(len(handles))], val)
			case 3:
				drv.SetWeight(handles[rng.Intn(len(handles))], float64(1+rng.Intn(4)))
			case 4:
				drv.SetPath(handles[rng.Intn(len(handles))], paths[pi])
			case 5:
				p := paths[pi]
				drv.SetLinkCapacity(p[rng.Intn(len(p))].ID, float64(50+rng.Intn(200)))
			}
		}
		s.Commit() // fence: every op above is journaled and folded
		for k := 0; k < 5; k++ {
			if err := e.AppendIngest(synthIngest(rng, ingested)); err != nil {
				t.Fatal(err)
			}
			ingested++
		}
		if err := e.AppendPoll(journal.PollRecord{
			Source: "peer-" + string(rune('a'+r%3)),
			At:     time.Unix(0, int64(r)*1e9).UTC(),
			Data:   json.RawMessage(`{"round":` + string(rune('0'+r%10)) + `}`),
		}); err != nil {
			t.Fatal(err)
		}
		if r%3 == 1 {
			if err := e.AppendFault(faults.Event{At: time.Duration(r) * time.Second}); err != nil {
				t.Fatal(err)
			}
		}
	}
	final := s.Close()
	if err := s.JournalError(); err != nil {
		t.Fatalf("journal error during drive: %v", err)
	}
	return final
}

// folderDigests snapshots every folder's state fingerprint.
func folderDigests(folders ...Folder) map[string]uint64 {
	out := make(map[string]uint64, len(folders))
	for _, f := range folders {
		out[f.Name()] = StateDigest(f)
	}
	return out
}

// TestResumeEqualsFromScratchFold drives a journaled run on every fixture,
// then rebuilds the read models two ways — checkpoint resume and
// from-scratch fold of the full recovered stream — and requires both equal
// to the live folders bit for bit (state-encoding fingerprints).
func TestResumeEqualsFromScratchFold(t *testing.T) {
	for name, build := range fixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			const every = 16
			qoe, hints, lu := newFolders()
			e, err := NewEngine(Config{Writer: w, CheckpointEvery: every}, qoe, hints, lu)
			if err != nil {
				t.Fatal(err)
			}
			net, paths, ts := build()
			driveProjected(t, e, net, paths, ts, 7, 6, 8, 8)
			live := folderDigests(qoe, hints, lu)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, err := journal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Checkpoints) == 0 {
				t.Fatal("no checkpoints recovered; cadence not exercised")
			}

			// Arm 1: checkpoint resume.
			q2, h2, l2 := newFolders()
			eng2, err := NewEngine(Config{}, q2, h2, l2)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := eng2.Resume(rec)
			if err != nil {
				t.Fatal(err)
			}
			// The checkpoint cadence bounds the tail: at most one cadence of
			// folded records trails the last checkpoint batch, plus that
			// batch's sibling checkpoint frames.
			bound := every + len(live)
			for fname, d := range folderDigests(q2, h2, l2) {
				if d != live[fname] {
					t.Errorf("resume: folder %q digest %016x != live %016x", fname, d, live[fname])
				}
				if tf := stats.TailFolded[fname]; tf > bound {
					t.Errorf("resume: folder %q refolded %d of %d records, want <= %d (cadence-bounded)", fname, tf, len(rec.Stream), bound)
				}
			}

			// Arm 2: from-scratch fold of the full stream.
			q3, h3, l3 := newFolders()
			for _, f := range []Folder{q3, h3, l3} {
				if err := Fold(rec, f, len(rec.Stream)); err != nil {
					t.Fatal(err)
				}
			}
			for fname, d := range folderDigests(q3, h3, l3) {
				if d != live[fname] {
					t.Errorf("from-scratch: folder %q digest %016x != live %016x", fname, d, live[fname])
				}
			}

			// The projected QoE queries must match a collector that ingested
			// the same history directly (same config, noise off).
			col := core.NewA2ICollector(qoeCfg())
			for _, r := range rec.Ingests {
				col.Ingest(r)
			}
			wantSums := col.Summaries()
			gotSums := q2.Summaries()
			if len(wantSums) != len(gotSums) {
				t.Fatalf("projected %d summaries, collector %d", len(gotSums), len(wantSums))
			}
			for i := range wantSums {
				if wantSums[i] != gotSums[i] {
					t.Errorf("summary %d: projected %+v != collector %+v", i, gotSums[i], wantSums[i])
				}
			}
			now := time.Duration(3600) * time.Second
			wantTE, gotTE := col.TrafficEstimates(now), q2.TrafficEstimates(now)
			if len(wantTE) != len(gotTE) {
				t.Fatalf("projected %d traffic estimates, collector %d", len(gotTE), len(wantTE))
			}
			for i := range wantTE {
				if wantTE[i] != gotTE[i] {
					t.Errorf("traffic %d: projected %+v != collector %+v", i, gotTE[i], wantTE[i])
				}
			}
		})
	}
}

// TestMaterializeAtDifferentialSweep probes every op index of a journaled
// run on every fixture: the snapshot-accelerated batched
// journal.MaterializeAt must land on a network digest-identical to a serial
// unbatched prefix replay, and projection.MaterializeAt at every stream
// offset must equal a from-scratch fold to the same offset.
func TestMaterializeAtDifferentialSweep(t *testing.T) {
	for name, build := range fixtures() {
		build := build
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			qoe, hints, lu := newFolders()
			e, err := NewEngine(Config{Writer: w, CheckpointEvery: 16}, qoe, hints, lu)
			if err != nil {
				t.Fatal(err)
			}
			net, paths, ts := build()
			driveProjected(t, e, net, paths, ts, 11, 5, 8, 8)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := journal.Recover(dir)
			if err != nil {
				t.Fatal(err)
			}

			// Network time travel: every op index.
			for op := 0; op <= len(rec.Ops); op++ {
				fast, _, err := rec.MaterializeAt(op)
				if err != nil {
					t.Fatalf("MaterializeAt(%d): %v", op, err)
				}
				slow, err := rec.ReplayPrefix(op)
				if err != nil {
					t.Fatalf("ReplayPrefix(%d): %v", op, err)
				}
				if df, ds := fast.StateDigest(), slow.StateDigest(); df != ds {
					t.Fatalf("op %d: materialized digest %016x != serial prefix %016x", op, df, ds)
				}
			}

			// Read-model time travel: strided stream offsets plus the exact
			// end.
			offsets := []int{}
			for off := 0; off < len(rec.Stream); off += 7 {
				offsets = append(offsets, off)
			}
			offsets = append(offsets, len(rec.Stream))
			q2, h2, l2 := newFolders()
			ref := []Folder{q2, h2, l2}
			q3, h3, l3 := newFolders()
			fast := []Folder{q3, h3, l3}
			for _, off := range offsets {
				if err := MaterializeAt(rec, off, fast...); err != nil {
					t.Fatalf("projection MaterializeAt(%d): %v", off, err)
				}
				for i, f := range ref {
					if err := Fold(rec, f, off); err != nil {
						t.Fatalf("fold to %d: %v", off, err)
					}
					if df, ds := StateDigest(fast[i]), StateDigest(f); df != ds {
						t.Fatalf("offset %d folder %q: materialized %016x != from-scratch %016x", off, f.Name(), df, ds)
					}
				}
			}
		})
	}
}

// TestCheckpointStateRoundTrip: every folder's encode→decode→encode is
// byte-stable on a populated state — the canonical-encoding property the
// checkpoint fingerprints rely on.
func TestCheckpointStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	qoe, hints, lu := newFolders()
	e, err := NewEngine(Config{Writer: w}, qoe, hints, lu)
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["mesh"]()
	driveProjected(t, e, net, paths, ts, 5, 4, 8, 8)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fresh := func(name string) Folder {
		q, h, l := newFolders()
		switch name {
		case q.Name():
			return q
		case h.Name():
			return h
		default:
			return l
		}
	}
	for _, f := range []Folder{qoe, hints, lu} {
		enc := f.EncodeState(nil)
		g := fresh(f.Name())
		if err := g.DecodeState(enc); err != nil {
			t.Fatalf("%s: decode: %v", f.Name(), err)
		}
		re := g.EncodeState(nil)
		if string(enc) != string(re) {
			t.Fatalf("%s: decode→encode not byte-stable (%d vs %d bytes)", f.Name(), len(enc), len(re))
		}
		// Truncated payloads must fail loudly, never half-decode.
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			if cut >= len(enc) {
				continue
			}
			if err := fresh(f.Name()).DecodeState(enc[:cut]); err == nil && cut != 0 {
				// A zero-length prefix can be a legitimately empty state for
				// some folders; any longer strict prefix must error.
				t.Errorf("%s: decode of %d-byte prefix succeeded", f.Name(), cut)
			}
		}
	}
}

// lossyFolder counts ingests, and its decoder has drifted from its encoder:
// it drops the count's low bit. Every checkpoint it writes at an odd count
// decodes to a different state without any decode error.
type lossyFolder struct {
	Base
	n uint64
}

func (l *lossyFolder) Name() string                  { return "lossy" }
func (l *lossyFolder) Reset()                        { l.n = 0 }
func (l *lossyFolder) FoldIngest(core.QoERecord)     { l.n++ }
func (l *lossyFolder) EncodeState(buf []byte) []byte { return journal.AppendU64(buf, l.n) }
func (l *lossyFolder) DecodeState(p []byte) error {
	r := journal.NewPayloadReader(p)
	n := r.U64("lossy count")
	if err := r.Done("lossy state"); err != nil {
		return err
	}
	l.n = n &^ 1
	return nil
}

// TestCheckpointDriftFailsLoudly pins the verify-on-restore contract on both
// checkpoint readers: Resume and MaterializeAt must reject a checkpoint whose
// decoded state does not re-encode to its recorded fingerprint, instead of
// folding the tail over a wrong state and serving it.
func TestCheckpointDriftFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Config{Writer: w, CheckpointEvery: 5}, &lossyFolder{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 7; i++ { // one checkpoint, at count 5
		if err := e.AppendIngest(synthIngest(rng, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints["lossy"]) == 0 {
		t.Fatal("no checkpoint recovered; the drift is never read back")
	}
	const want = "re-encodes to"
	if err := MaterializeAt(rec, len(rec.Stream), &lossyFolder{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("MaterializeAt over a drifted checkpoint: err = %v, want one containing %q", err, want)
	}
	e2, err := NewEngine(Config{}, &lossyFolder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Resume(rec); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Resume over a drifted checkpoint: err = %v, want one containing %q", err, want)
	}
}

// TestProjectedQueryAllocFree pins the projected query path: once the read
// models are warm, group lookups and hint fetches allocate nothing.
func TestProjectedQueryAllocFree(t *testing.T) {
	qoe, hints, lu := newFolders()
	e, err := NewEngine(Config{}, qoe, hints, lu)
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["line"]()
	driveProjected(t, e, net, paths, ts, 13, 4, 8, 8)

	key := core.SummaryKey{ClientISP: "isp-a", CDN: "cdnX", Cluster: "c1"}
	if _, ok := qoe.SummaryFor(key); !ok {
		t.Fatalf("warmup: group %+v not present", key)
	}
	var sink float64
	query := func() {
		s, _ := qoe.SummaryFor(key)
		pr, _ := hints.Latest("peer-a")
		sink = s.MeanScore + float64(len(pr.Data)) + float64(lu.Ops())
	}
	query()
	if a := testing.AllocsPerRun(500, query); a != 0 {
		t.Errorf("projected query path allocates %v allocs/op, want 0 (sink %v)", a, sink)
	}
}

// TestEngineErrLatching: appends keep folding after the writer dies; Err
// surfaces the latched write error.
func TestEngineErrLatching(t *testing.T) {
	dir := t.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	qoe, _, _ := newFolders()
	e, err := NewEngine(Config{Writer: w}, qoe)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	_ = e.AppendIngest(synthIngest(rng, 0))
	if qoe.Ingested() != 1 {
		t.Fatalf("fold skipped on write error: ingested %d", qoe.Ingested())
	}
	if e.Err() == nil {
		t.Fatal("writer error not surfaced")
	}
}
