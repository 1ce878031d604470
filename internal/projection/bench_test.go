package projection

import (
	"math/rand"
	"testing"
	"time"

	"eona/internal/core"
	"eona/internal/journal"
)

// benchJournal drives one projected run into dir and returns its recovery.
func benchJournal(b *testing.B, checkpointEvery int) *journal.Recovered {
	b.Helper()
	dir := b.TempDir()
	w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	qoe, hints, lu := newFolders()
	e, err := NewEngine(Config{Writer: w, CheckpointEvery: checkpointEvery}, qoe, hints, lu)
	if err != nil {
		b.Fatal(err)
	}
	net, paths, ts := fixtures()["mesh"]()
	driveProjected(b, e, net, paths, ts, 17, 20, 8, 8)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rec, err := journal.Recover(dir)
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkProjectionFold measures the from-scratch fold of a full recovered
// stream into the three standard read models — the cost Resume pays only for
// the tail.
func BenchmarkProjectionFold(b *testing.B) {
	rec := benchJournal(b, 64)
	qoe, hints, lu := newFolders()
	folders := []Folder{qoe, hints, lu}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range folders {
			if err := Fold(rec, f, len(rec.Stream)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMaterializeAt measures read-model time travel to the middle of
// the stream: checkpoint decode plus the fold of the gap back to the probed
// offset.
func BenchmarkMaterializeAt(b *testing.B) {
	rec := benchJournal(b, 32)
	qoe, hints, lu := newFolders()
	folders := []Folder{qoe, hints, lu}
	off := len(rec.Stream) / 2
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MaterializeAt(rec, off, folders...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectedQuery measures the steady-state live query path:
// summary and hint lookups against warm read models. This is the O(1),
// allocation-free path restarts buy back.
func BenchmarkProjectedQuery(b *testing.B) {
	qoe, hints, lu := newFolders()
	e, err := NewEngine(Config{}, qoe, hints, lu)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		if err := e.AppendIngest(synthIngest(rng, i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.AppendPoll(journal.PollRecord{Source: "peer-a", At: time.Unix(0, 1).UTC()}); err != nil {
		b.Fatal(err)
	}
	key := core.SummaryKey{ClientISP: "isp-a", CDN: "cdnX", Cluster: "c1"}
	if _, ok := qoe.SummaryFor(key); !ok {
		b.Fatalf("group %+v absent after warmup", key)
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := qoe.SummaryFor(key)
		pr, _ := hints.Latest("peer-a")
		sink = s.MeanScore + float64(len(pr.Data)) + float64(lu.Ops())
	}
	_ = sink
}
