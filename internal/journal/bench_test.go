package journal

import (
	"testing"

	"eona/internal/netsim"
)

// benchOps builds a representative op stream: 32 long-lived flows on a
// two-link line, then demand and capacity edits cycling over them.
func benchOps(n int) (netsim.TopoState, []netsim.Op) {
	topo := netsim.NewTopology()
	a := topo.AddLink("a", "b", 100, 0, "")
	b := topo.AddLink("b", "c", 80, 0, "")
	links := []netsim.LinkID{a.ID, b.ID}
	const flows = 32
	ops := make([]netsim.Op, 0, n)
	for i := 0; i < flows && i < n; i++ {
		ops = append(ops, netsim.Op{Kind: netsim.OpStart, Flow: netsim.FlowID(i), Links: links, Value: 10, Tag: "bench"})
	}
	for i := flows; i < n; i++ {
		if i%5 == 0 {
			ops = append(ops, netsim.Op{Kind: netsim.OpSetLinkCapacity, Link: a.ID, Value: float64(60 + i%50)})
		} else {
			ops = append(ops, netsim.Op{Kind: netsim.OpSetDemand, Flow: netsim.FlowID(i % flows), Value: float64(1 + i%40)})
		}
	}
	return netsim.ExportTopology(topo), ops
}

// BenchmarkJournalAppend measures the framing + write path per op record
// with fsync off, so it benchmarks the journal, not the disk.
func BenchmarkJournalAppend(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 1 << 30, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	op := netsim.Op{Kind: netsim.OpSetDemand, Flow: 7, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendOp(op, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendSynced is the durable path: one fsync per record.
func BenchmarkJournalAppendSynced(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 1 << 30, Sync: SyncAppend})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	op := netsim.Op{Kind: netsim.OpSetDemand, Flow: 7, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.AppendOp(op, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalReplay measures full recovery (scan + decode + replay)
// of a 3k-op journal.
func BenchmarkJournalReplay(b *testing.B) {
	dir := b.TempDir()
	w, err := Open(Config{Dir: dir, Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	ts, ops := benchOps(3000)
	if err := w.AppendTopology(ts); err != nil {
		b.Fatal(err)
	}
	n := netsim.NewNetwork(ts.Build())
	rp := netsim.NewReplayer(n)
	for _, op := range ops {
		if err := rp.Apply(op); err != nil {
			b.Fatal(err)
		}
		if err := w.AppendOp(op, n.StateDigest()); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := Recover(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := rec.MaterializeAt(len(rec.Ops)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAppendOpAllocFree pins the SyncNever append path at zero allocations:
// frame and payload encoding reuse the writer's scratch buffers, so journal
// capture adds no GC pressure to the owner goroutine's commit loop.
func TestAppendOpAllocFree(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, SegmentBytes: 1 << 30, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	op := netsim.Op{Kind: netsim.OpSetDemand, Flow: 7, Value: 42}
	i := uint64(0)
	append1 := func() {
		if err := w.AppendOp(op, i); err != nil {
			t.Fatal(err)
		}
		i++
	}
	append1() // warm the scratch buffers
	if a := testing.AllocsPerRun(500, append1); a != 0 {
		t.Errorf("AppendOp (SyncNever) allocates %v allocs/op, want 0", a)
	}
}
