package main

import (
	"os"
	"path/filepath"
	"time"

	"eona/internal/auth"
	"eona/internal/core"
	"eona/internal/journal"
	"eona/internal/wire"
)

// Layers the harness cannot wrap from outside (core inside the read model,
// wire inside the looking glass, the journal inside the engine) are measured
// by isolation replay: the inputs the workload just used are fed to that
// layer's public functions alone.

// meanCallUs times n back-to-back calls and returns the mean µs per call.
func meanCallUs(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return us(time.Since(start)) / float64(n)
}

// medianCallUs times each of n calls and returns the median µs.
func medianCallUs(n int, fn func()) float64 {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = us(time.Since(start))
	}
	return median(ds)
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (total int64) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// scratchJournal opens a bare journal writer in its own directory under the
// node's, so it is removed with it.
func scratchJournal(n *node, name string) (*journal.Writer, string, error) {
	dir := filepath.Join(n.dir, name)
	w, err := journal.Open(journal.Config{Dir: dir, Sync: journal.SyncRotate})
	return w, dir, err
}

const summariesRoute = "/v1/a2i/summaries"

// lgReadLayers derives lg-read's per-layer metrics: span medians from the
// traced pass, and isolation replays of auth, wire and core on the node's
// live payload and records.
func lgReadLayers(res *result, tr *tracer, n *node, recs []core.QoERecord) {
	l := res.layer
	l["nethttp.self_us"] = tr.medianSelfUs("client.request:")
	l["lookingglass.serve_us"] = tr.medianUs("lookingglass.serve:")
	l["lookingglass.serve_summaries_us"] = tr.medianUs("lookingglass.serve:" + summariesRoute)
	l["lookingglass.self_summaries_us"] = tr.medianSelfUs("lookingglass.serve:" + summariesRoute)
	l["projection.read_summaries_us"] = tr.medianUs("projection.read_summaries")
	l["projection.read_traffic_us"] = tr.medianUs("projection.read_traffic")
	l["ctlplane.links_us"] = tr.medianUs("lookingglass.serve:/v1/links")
	l["ctlplane.flows_us"] = tr.medianUs("lookingglass.serve:/v1/flows")
	l["ctlplane.stats_us"] = tr.medianUs("lookingglass.serve:/v1/stats")
	// Do the layers account for the request? Transport self time + looking
	// glass self time + read-model query, over the whole client span.
	l["bench.lgread_layers_over_client"] = (tr.medianSelfUs("client.request:"+summariesRoute) +
		l["lookingglass.self_summaries_us"] + l["projection.read_summaries_us"]) /
		tr.medianUs("client.request:"+summariesRoute)

	now := time.Now()
	l["auth.authorize_ns"] = 1e3 * meanCallUs(100000, func(int) {
		if collab, err := n.store.Authorize(token(0), auth.ScopeA2IQoE); err == nil {
			n.limit.Allow(collab, now)
		}
	})

	payload := n.models.qoe.Summaries()
	var encoded []byte
	l["wire.encode_summaries_us"] = medianCallUs(200, func() {
		encoded, _ = wire.Encode(wire.TypeQoESummaries, now.UnixMilli(), payload)
	})
	l["wire.decode_summaries_us"] = medianCallUs(200, func() {
		if env, err := wire.Decode(encoded); err == nil {
			wire.DecodePayload[[]core.QoESummary](env, wire.TypeQoESummaries)
		}
	})

	bare := core.NewA2ICollector(collectorConfig())
	l["core.ingest_ns"] = 1e3 * meanCallUs(len(recs), func(i int) { bare.Ingest(recs[i]) })
	l["core.summaries_us"] = medianCallUs(200, func() { bare.Summaries() })
	l["core.groups"] = float64(len(bare.Summaries()))
}

// lgMixedLayers derives lg-mixed's per-layer metrics: the spans of the reads
// and appends that contended for the engine lock, and isolation replays of the
// fold, the checkpoint encode and the journal append on the records the run
// ingested.
func lgMixedLayers(res *result, tr *tracer, n *node, recs []core.QoERecord, appended int) {
	l := res.layer
	l["projection.read_summaries_contended_us"] = tr.medianUs("projection.read_summaries")
	l["projection.read_traffic_contended_us"] = tr.medianUs("projection.read_traffic")
	appends := tr.durationsUs("projection.append_ingest", false)
	l["projection.append_ingest_us"] = quantile(appends, 0.5)
	l["projection.append_ingest_p99_us"] = quantile(appends, 0.99)

	replay := min(appended, 50000)
	foldOnly, err := newEngine(nil, newReadModels())
	res.check(err == nil, "fold-only engine: %v", err)
	if err == nil {
		l["projection.fold_ingest_us"] = meanCallUs(replay, func(i int) { foldOnly.AppendIngest(recs[i%len(recs)]) })
	}

	var buf []byte
	ckpt := 0
	l["projection.encode_state_us"] = medianCallUs(50, func() {
		ckpt = 0
		for _, f := range n.models.folders() {
			buf = f.EncodeState(buf[:0])
			ckpt += len(buf)
		}
	})
	l["projection.ckpt_bytes"] = float64(ckpt)

	w, dir, err := scratchJournal(n, "replay-ingest")
	res.check(err == nil, "scratch journal: %v", err)
	if err == nil {
		l["journal.append_ingest_us"] = meanCallUs(replay, func(i int) { w.AppendIngest(recs[i%len(recs)]) })
		records := w.Records()
		res.check(w.Close() == nil && records == uint64(replay), "scratch journal holds %d records, want %d", records, replay)
		l["journal.bytes_per_rec"] = float64(dirBytes(dir)) / float64(records)
	}
}
