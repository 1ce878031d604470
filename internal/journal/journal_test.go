package journal

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"eona/internal/core"
	"eona/internal/faults"
	"eona/internal/netsim"
	"eona/internal/sim"
)

// fixtures builds the journal test topologies through the public netsim
// API: every shape the crash sweep runs over, as (fresh network, candidate
// paths, topology-as-data) builders.
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

// loggedWriter journals into a Writer and keeps an in-memory OpLog beside
// it: the independent record recovery is checked against.
type loggedWriter struct {
	*Writer
	log netsim.OpLog
}

func (l *loggedWriter) AppendOp(op netsim.Op, digest uint64) error {
	l.log.AppendOp(op, digest)
	return l.Writer.AppendOp(op, digest)
}

// driveJournaled runs the canonical seeded multi-driver workload against a
// deterministic SharedNetwork journaling into w, and returns the final
// network plus the recorded op log.
func driveJournaled(t *testing.T, w *Writer, net *netsim.Network, paths []netsim.Path, seed int64, snapshotEvery int) (*netsim.Network, []netsim.Op) {
	t.Helper()
	const drivers, rounds, opsPerRound = 3, 4, 8
	sink := &loggedWriter{Writer: w}
	s := netsim.NewShared(net, netsim.SharedConfig{
		Deterministic: true, Journal: sink, SnapshotEvery: snapshotEvery,
	})
	drv := make([]*netsim.Driver, drivers)
	handles := make([][]*netsim.Flow, drivers)
	for d := range drv {
		drv[d] = s.Driver(uint64(d + 1))
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed*1_000_000 + int64(d)*1_000 + int64(r)))
				h := handles[d]
				for k := 0; k < opsPerRound; k++ {
					op := rng.Intn(6)
					if len(h) == 0 {
						op = 0
					}
					pi := rng.Intn(len(paths))
					val := float64(1 + rng.Intn(300))
					if rng.Intn(6) == 0 {
						val = math.Inf(1)
					}
					switch op {
					case 0:
						h = append(h, drv[d].StartFlow(paths[pi], val, "journaled"))
					case 1:
						drv[d].StopFlow(h[rng.Intn(len(h))])
					case 2:
						drv[d].SetDemand(h[rng.Intn(len(h))], val)
					case 3:
						drv[d].SetWeight(h[rng.Intn(len(h))], float64(1+rng.Intn(4)))
					case 4:
						drv[d].SetPath(h[rng.Intn(len(h))], paths[pi])
					case 5:
						p := paths[pi]
						drv[d].SetLinkCapacity(p[rng.Intn(len(p))].ID, float64(50+rng.Intn(200)))
					}
				}
				handles[d] = h
			}(d)
		}
		wg.Wait()
		s.Commit()
	}
	final := s.Close()
	if err := s.JournalError(); err != nil {
		t.Fatalf("journal error during drive: %v", err)
	}
	return final, sink.log.Ops
}

// requireSameNetworks asserts two networks agree bit for bit through the
// public snapshot surface, plus matching state digests.
func requireSameNetworks(t *testing.T, label string, a, b *netsim.Network) {
	t.Helper()
	sa, sb := a.Snapshot(), b.Snapshot()
	if sa.NumFlows() != sb.NumFlows() {
		t.Fatalf("%s: %d flows vs %d", label, sa.NumFlows(), sb.NumFlows())
	}
	for id := 0; id < a.Topology().NumLinks(); id++ {
		l := netsim.LinkID(id)
		if sa.LinkRate(l) != sb.LinkRate(l) {
			t.Fatalf("%s: link %d rate %v != %v", label, id, sa.LinkRate(l), sb.LinkRate(l))
		}
		if sa.Headroom(l) != sb.Headroom(l) {
			t.Fatalf("%s: link %d headroom %v != %v", label, id, sa.Headroom(l), sb.Headroom(l))
		}
	}
	sa.Flows(func(v netsim.FlowView) {
		w, ok := sb.Flow(v.ID)
		if !ok {
			t.Fatalf("%s: flow %d missing", label, v.ID)
		}
		if v != w {
			t.Fatalf("%s: flow %d %+v != %+v", label, v.ID, v, w)
		}
	})
	if da, db := a.StateDigest(), b.StateDigest(); da != db {
		t.Fatalf("%s: digest %016x != %016x", label, da, db)
	}
}

// TestJournalRecoverRoundTrip: drive a journaled run on every fixture, then
// recover from disk alone and require the rebuilt network bit-identical to
// the live final state — with and without snapshots in the log.
func TestJournalRecoverRoundTrip(t *testing.T) {
	for name, build := range fixtures() {
		for _, snapEvery := range []int{0, 8} {
			build := build
			sub := name + "/snap0"
			if snapEvery > 0 {
				sub = name + "/snap8"
			}
			t.Run(sub, func(t *testing.T) {
				dir := t.TempDir()
				w, err := Open(Config{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				net, paths, ts := build()
				if err := w.AppendTopology(ts); err != nil {
					t.Fatal(err)
				}
				final, ops := driveJournaled(t, w, net, paths, 42, snapEvery)
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}

				rec, err := Recover(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Ops) != len(ops) {
					t.Fatalf("recovered %d ops, drove %d", len(rec.Ops), len(ops))
				}
				if snapEvery > 0 && rec.Snapshot == nil {
					t.Fatal("no snapshot recovered despite SnapshotEvery")
				}
				if rec.TruncatedBytes != 0 || rec.DroppedSegments != 0 {
					t.Fatalf("clean log reported truncation: %+v", rec)
				}
				got, replayed, err := rec.MaterializeAt(len(rec.Ops))
				if err != nil {
					t.Fatal(err)
				}
				if rec.Snapshot != nil && replayed != len(ops)-rec.Snapshot.OpIndex {
					t.Fatalf("replayed %d tail ops, want %d", replayed, len(ops)-rec.Snapshot.OpIndex)
				}
				requireSameNetworks(t, "recovered vs live", got, final)

				if d, err := rec.Bisect(); err != nil || d != nil {
					t.Fatalf("clean journal bisected to %v, %v", d, err)
				}
			})
		}
	}
}

// TestJournalRotation pins segment rotation: a small segment bound produces
// several segments and recovery stitches them back together losslessly.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 512, Sync: SyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["mesh"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	final, ops := driveJournaled(t, w, net, paths, 7, 6)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segments != len(segs) {
		t.Fatalf("recovered %d segments, dir has %d", rec.Segments, len(segs))
	}
	if len(rec.Ops) != len(ops) {
		t.Fatalf("recovered %d ops across segments, drove %d", len(rec.Ops), len(ops))
	}
	got, _, err := rec.MaterializeAt(len(rec.Ops))
	if err != nil {
		t.Fatal(err)
	}
	requireSameNetworks(t, "rotated recovery", got, final)
}

// TestJournalSyncPolicies: every policy yields a recoverable journal after a
// clean Close (the policies differ only in crash-window guarantees).
func TestJournalSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAppend, SyncRotate, SyncNever} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Config{Dir: dir, Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			net, paths, ts := fixtures()["line"]()
			if err := w.AppendTopology(ts); err != nil {
				t.Fatal(err)
			}
			final, _ := driveJournaled(t, w, net, paths, 3, 0)
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rec, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := rec.MaterializeAt(len(rec.Ops))
			if err != nil {
				t.Fatal(err)
			}
			requireSameNetworks(t, pol.String(), got, final)
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"": SyncAppend, "append": SyncAppend, "rotate": SyncRotate, "never": SyncNever} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestSnapshotCatchUpEquivalence is the snapshot + tail-catch-up rule at
// the journal level: recovery through the newest snapshot must land on the
// same state as a full replay of the op log from scratch, and the op tail
// it replays is bounded by the snapshot cadence, not the log length.
func TestSnapshotCatchUpEquivalence(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["hub"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	const snapEvery = 5
	driveJournaled(t, w, net, paths, 99, snapEvery)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || rec.Snapshot.OpIndex == 0 {
		t.Fatalf("want a mid-log snapshot, got %+v", rec.Snapshot)
	}
	viaSnap, replayed, err := rec.MaterializeAt(len(rec.Ops))
	if err != nil {
		t.Fatal(err)
	}
	if replayed > snapEvery {
		t.Fatalf("replayed %d of %d ops, want <= %d (the snapshot cadence)", replayed, len(rec.Ops), snapEvery)
	}
	full := netsim.NewNetwork(rec.Topo.Build())
	ops := make([]netsim.Op, len(rec.Ops))
	for i, or := range rec.Ops {
		ops[i] = or.Op
	}
	if err := netsim.Replay(full, ops); err != nil {
		t.Fatal(err)
	}
	requireSameNetworks(t, "snapshot+tail vs full replay", viaSnap, full)
}

// TestWriterResumesAcrossReopen: a reopened journal continues the op count,
// so snapshots written after a restart still index into the full log.
func TestWriterResumesAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["line"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	_, ops := driveJournaled(t, w, net, paths, 5, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Ops(); got != uint64(len(ops)) {
		t.Fatalf("reopened op count %d, want %d", got, len(ops))
	}
	// Recover, continue the run on the recovered network, journaling into
	// the same log, then recover again: the log is one continuous history.
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := rec.MaterializeAt(len(rec.Ops))
	if err != nil {
		t.Fatal(err)
	}
	s := netsim.NewShared(n, netsim.SharedConfig{Journal: w2, SnapshotEvery: 3})
	d := s.Driver(9)
	h := d.StartFlow(paths[0], 25, "resumed")
	d.SetDemand(h, 50)
	d.SetWeight(h, 2)
	d.SetDemand(h, 60)
	final := s.Close()
	if err := s.JournalError(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	rec2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Ops) != len(ops)+4 {
		t.Fatalf("continued log has %d ops, want %d", len(rec2.Ops), len(ops)+4)
	}
	if rec2.Snapshot == nil || rec2.Snapshot.OpIndex <= len(ops) {
		t.Fatalf("post-restart snapshot should index past the pre-restart ops: %+v", rec2.Snapshot)
	}
	got, _, err := rec2.MaterializeAt(len(rec2.Ops))
	if err != nil {
		t.Fatal(err)
	}
	requireSameNetworks(t, "recover after resumed run", got, final)
}

// TestRecoverMissingAndEmpty: a missing directory and an empty journal both
// recover to the empty state — a first boot has no history.
func TestRecoverMissingAndEmpty(t *testing.T) {
	rec, err := Recover(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 0 || rec.Topo != nil || rec.Segments != 0 {
		t.Fatalf("missing dir recovered non-empty: %+v", rec)
	}
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 0 || rec.Segments != 1 {
		t.Fatalf("empty journal recovered: %+v", rec)
	}
}

// TestSideStreamsRoundTrip: fault events, collector ingests and poll
// results survive the journal byte for byte.
func TestSideStreamsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ev := faults.Event{At: 3 * time.Second, Changes: []faults.CapacityChange{{Link: 2, Bps: 1}, {Link: 0, Bps: 5e6}}}
	if err := w.AppendFault(ev); err != nil {
		t.Fatal(err)
	}
	inner := core.NewA2ICollector(core.CollectorConfig{AppP: "appp-x"})
	recs := []core.QoERecord{
		{SessionID: "s1", ClientISP: "ispA", CDN: "cdn1", Cluster: "c1", Score: 4.2, BufferingRatio: 0.01},
		{SessionID: "s2", ClientISP: "ispB", CDN: "cdn2", Cluster: "c2", Score: 3.1, BufferingRatio: 0.2},
	}
	for _, r := range recs {
		if err := w.AppendIngest(r); err != nil {
			t.Fatal(err)
		}
	}
	inner.IngestBatch(recs)
	pr := PollRecord{Source: "http://peer/a2i", At: time.Unix(1754500000, 0).UTC(), Data: json.RawMessage(`{"k":1}`)}
	if err := w.AppendPoll(pr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Faults) != 1 || !reflect.DeepEqual(rec.Faults[0], ev) {
		t.Fatalf("faults %+v", rec.Faults)
	}
	if len(rec.Ingests) != 2 || !reflect.DeepEqual(rec.Ingests, recs) {
		t.Fatalf("ingests %+v", rec.Ingests)
	}
	if len(rec.Polls) != 1 || !reflect.DeepEqual(rec.Polls[0], pr) {
		t.Fatalf("polls %+v", rec.Polls)
	}
	// Replaying the recovered ingest stream rebuilds the collector — one
	// batch in journal order.
	rebuilt := core.NewA2ICollector(core.CollectorConfig{AppP: "appp-x"})
	rebuilt.IngestBatch(rec.Ingests)
	if a, b := rebuilt.Summaries(), inner.Summaries(); !reflect.DeepEqual(a, b) {
		t.Fatalf("rebuilt summaries diverge:\n%+v\n%+v", a, b)
	}
}

// TestScheduleDriverFaultsReplay: the capacity edits of fault instants fired
// through ScheduleDriver land in the op log, so recovery replays them.
func TestScheduleDriverFaultsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	net, _, ts := fixtures()["line"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	s := netsim.NewShared(net, netsim.SharedConfig{Journal: w})
	drv := s.Driver(1)
	plan := &faults.Plan{LinkFaults: []faults.LinkFault{
		{Link: "l0", Window: faults.Window{Start: time.Second, End: 2 * time.Second}, Factor: 0.5},
	}}
	eng := sim.NewEngine(0)
	targets := map[string]faults.Target{"l0": {ID: 0, BaseBps: 100}}
	if err := plan.ScheduleDriver(eng, drv, targets); err != nil {
		t.Fatal(err)
	}
	eng.Run(3 * time.Second)
	s.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 2 {
		t.Fatalf("want 2 ops, got %d", len(rec.Ops))
	}
	n, _, err := rec.MaterializeAt(len(rec.Ops))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Snapshot().Headroom(0); got != 100 {
		t.Fatalf("restored capacity headroom %v, want 100", got)
	}
}

// TestBisectFindsFirstDivergentOp: corrupt one op's recorded value inside
// an otherwise CRC-valid journal (payload edited, CRC recomputed — the
// tamper a checksum cannot catch) and bisect must name exactly that op.
func TestBisectFindsFirstDivergentOp(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	net, paths, ts := fixtures()["line"]()
	if err := w.AppendTopology(ts); err != nil {
		t.Fatal(err)
	}
	driveJournaled(t, w, net, paths, 12, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) < 6 {
		t.Fatalf("only %d ops", len(rec.Ops))
	}
	target := corruptFirstValueOp(t, dir)

	rec, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rec.Bisect()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("bisect missed the corrupted op")
	}
	if d.Index != target {
		t.Fatalf("bisect blamed op %d, corrupted op %d", d.Index, target)
	}
	if _, _, err := rec.MaterializeAt(len(rec.Ops)); err == nil {
		t.Fatal("MaterializeAt accepted a diverging log")
	}
}

// corruptFirstValueOp rewrites the journal's first value-carrying op
// (set-demand or set-link-capacity with a finite value — ops whose Value
// actually shapes the state) with a bumped Value, recomputing the CRC so
// the frame stays valid, and returns that op's global index. The recorded
// digest is left as originally written, so the log now lies about its own
// history — exactly what bisect exists to catch.
func corruptFirstValueOp(t *testing.T, dir string) int {
	t.Helper()
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	opSeen := -1
	for _, name := range segs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		off := len(segMagic)
		for {
			typ, payload, next, serr := scanFrame(data, off)
			if serr != nil {
				break
			}
			if typ == recOp {
				opSeen++
				op, digest, derr := decodeOpPayload(payload)
				if derr != nil {
					t.Fatal(derr)
				}
				if (op.Kind == netsim.OpSetDemand || op.Kind == netsim.OpSetLinkCapacity) && !math.IsInf(op.Value, 1) {
					op.Value += 13 // digest left as originally recorded
					frame := appendFrame(nil, recOp, appendOpPayload(nil, op, digest))
					if len(frame) != next-off {
						t.Fatalf("corrupted frame is %d bytes, original %d", len(frame), next-off)
					}
					copy(data[off:next], frame)
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					return opSeen
				}
			}
			off = next
		}
	}
	t.Fatal("no value-carrying op found in journal")
	return -1
}
