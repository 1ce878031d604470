package expt

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"eona/internal/agg"
	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/lookingglass"
)

// E7 — §5 "scalability".
//
// Paper claim: "a typical AppP can collect user experience for tens [of]
// millions of sessions each day, and such large volumes of data can cause
// serious scalability challenges for the control logic of InfPs, to which
// recent advances in big data platforms ... may provide an approach."
//
// We measure the throughput of the single-process A2I pipeline this
// repository ships instead of a cluster: Collector ingest (the dimensional
// rollup every record passes through), count-min sketch updates, P²
// quantile updates, and the end-to-end looking-glass query latency. The
// headline number is the implied sessions/day capacity of one core.
//
// Unlike the other experiments' simulations these are wall-clock measurements; exact
// numbers vary by machine, but the shape — a single core comfortably above
// the paper's "tens of millions per day" — is the reproducible claim. The
// matching testing.B benchmarks live in bench_test.go. Allocator, shared-
// network and engine throughput are not measured here: each is owned by a
// gated Benchmark* or a bench/ metric (ownership table in EXPERIMENTS.md §E7).

// E7Result carries measured rates.
type E7Result struct {
	// CollectorPerSec is Collector.Ingest records/second.
	CollectorPerSec float64
	// ImpliedSessionsPerDay = CollectorPerSec × 86400.
	ImpliedSessionsPerDay float64
	// SketchAddPerSec is count-min updates/second.
	SketchAddPerSec float64
	// P2AddPerSec is quantile updates/second.
	P2AddPerSec float64
	// SketchMemoryBytes is the count-min footprint at ε=0.1%, δ=0.1%.
	SketchMemoryBytes int
	// QueryP50 is the median looking-glass round trip over loopback
	// HTTP.
	QueryP50 time.Duration
}

// e7Records synthesizes a record stream across a realistic key space.
func e7Records(n int) []core.QoERecord {
	isps := []string{"isp-a", "isp-b", "isp-c", "isp-d", "isp-e"}
	cdns := []string{"cdnX", "cdnY", "cdnZ"}
	clusters := []string{"east", "west", "eu", "apac"}
	out := make([]core.QoERecord, n)
	for i := range out {
		out[i] = core.QoERecord{
			SessionID:      fmt.Sprintf("s%08d", i),
			Timestamp:      time.Duration(i) * time.Millisecond,
			AppP:           "vod",
			ClientISP:      isps[i%len(isps)],
			CDN:            cdns[i%len(cdns)],
			Cluster:        clusters[i%len(clusters)],
			Score:          float64(i % 100),
			BufferingRatio: float64(i%10) / 100,
			AvgBitrateBps:  float64(1+i%8) * 5e5,
			StartupDelay:   time.Duration(i%5000) * time.Millisecond,
			PlayTime:       10 * time.Minute,
		}
	}
	return out
}

// RunE7 measures the pipeline. n controls the ingest volume (default 500k
// when 0).
func RunE7(n int) E7Result {
	if n <= 0 {
		n = 500_000
	}
	recs := e7Records(n)
	var res E7Result

	// Collector ingest.
	col := core.NewA2ICollector(core.CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	start := time.Now()
	for i := range recs {
		col.Ingest(recs[i])
	}
	el := time.Since(start).Seconds()
	res.CollectorPerSec = float64(n) / el
	res.ImpliedSessionsPerDay = res.CollectorPerSec * 86400

	// Count-min.
	cm := agg.NewCountMinWithError(0.001, 0.001)
	res.SketchMemoryBytes = cm.MemoryBytes()
	start = time.Now()
	for i := range recs {
		cm.Add(recs[i].ClientISP, 1)
	}
	res.SketchAddPerSec = float64(n) / time.Since(start).Seconds()

	// P² quantile.
	p2 := agg.NewP2(0.95)
	start = time.Now()
	for i := range recs {
		p2.Add(recs[i].Score)
	}
	res.P2AddPerSec = float64(n) / time.Since(start).Seconds()

	// Looking-glass round trips over loopback.
	store := auth.NewStore()
	store.Register("tok", "isp-a", auth.ScopeA2IQoE)
	srv := lookingglass.NewServer(store, nil, lookingglass.Sources{
		QoESummaries: col.Summaries,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := lookingglass.NewClient(ts.URL, "tok", ts.Client())
	const reqs = 64
	lat := make([]time.Duration, 0, reqs)
	ctx := context.Background()
	for i := 0; i < reqs; i++ {
		t0 := time.Now()
		if _, err := client.QoESummaries(ctx); err != nil {
			panic(fmt.Sprintf("expt: E7 looking-glass query: %v", err))
		}
		lat = append(lat, time.Since(t0))
	}
	// Median by insertion sort (small n).
	for i := 1; i < len(lat); i++ {
		for j := i; j > 0 && lat[j] < lat[j-1]; j-- {
			lat[j], lat[j-1] = lat[j-1], lat[j]
		}
	}
	res.QueryP50 = lat[len(lat)/2]
	return res
}

// Table renders the measurements.
func (r E7Result) Table() *Table {
	t := &Table{
		Title:   "E7 (§5): A2I pipeline scalability (single core)",
		Columns: []string{"stage", "throughput", "note"},
	}
	t.AddRow("Collector.Ingest (full rollup)",
		fmt.Sprintf("%.2fM rec/s", r.CollectorPerSec/1e6),
		fmt.Sprintf("≈ %.1fB sessions/day", r.ImpliedSessionsPerDay/1e9))
	t.AddRow("count-min sketch add",
		fmt.Sprintf("%.2fM ops/s", r.SketchAddPerSec/1e6),
		fmt.Sprintf("%.1f MiB at ε=δ=0.1%%", float64(r.SketchMemoryBytes)/(1<<20)))
	t.AddRow("P² quantile add",
		fmt.Sprintf("%.2fM ops/s", r.P2AddPerSec/1e6), "O(1) memory")
	t.AddRow("looking-glass query (loopback)",
		fmt.Sprintf("p50 %s", r.QueryP50), "auth + encode + HTTP round trip")
	t.Notes = append(t.Notes,
		"paper: 'tens [of] millions of sessions each day' — one core covers that with orders of magnitude to spare")
	return t
}
