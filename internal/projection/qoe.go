package projection

import (
	"time"

	"eona/internal/agg"
	"eona/internal/core"
)

// QoE is the A2I read model: per-(ISP, CDN, cluster) QoE rollups and
// per-CDN traffic estimates, maintained incrementally by folding ingest
// records into a core.Collector. Queries delegate to the collector — the
// same O(1) group lookups live nodes serve — so a projection-backed node
// answers exactly what a collector that ingested the full history would,
// which TestQoEFolderMatchesCollector pins bit for bit.
type QoE struct {
	Base
	cfg core.CollectorConfig
	col *core.Collector
}

// NewQoE builds the folder over a fresh collector.
func NewQoE(cfg core.CollectorConfig) *QoE {
	q := &QoE{cfg: cfg}
	q.Reset()
	return q
}

func (q *QoE) Name() string { return "qoe" }

// Reset rebuilds the empty collector (noise streams restart from the
// configured seed, as on any journal restart).
func (q *QoE) Reset() {
	q.col = core.NewA2ICollector(q.cfg)
}

// FoldIngest feeds one session record into the rollups.
func (q *QoE) FoldIngest(rec core.QoERecord) { q.col.Ingest(rec) }

// Ingested returns the number of sessions folded.
func (q *QoE) Ingested() uint64 { return q.col.Ingested() }

// Summaries returns the per-group exports under the configured policy.
func (q *QoE) Summaries() []core.QoESummary { return q.col.Summaries() }

// SummaryFor returns one group's export — an O(1) lookup into maintained
// state, allocation-free at steady state (pinned by
// TestProjectedQueryAllocFree).
func (q *QoE) SummaryFor(key core.SummaryKey) (core.QoESummary, bool) {
	return q.col.SummaryFor(key)
}

// TrafficEstimates returns per-CDN demand estimates at now.
func (q *QoE) TrafficEstimates(now time.Duration) []core.TrafficEstimate {
	return q.col.TrafficEstimates(now)
}

// Collector exposes the maintained collector for callers that serve the
// full A2ICollector query surface (eona-lg). Mutating it outside the fold
// path breaks the checkpoint contract.
func (q *QoE) Collector() *core.Collector { return q.col }

// EncodeState writes the collector's aggregation state: ingest count, then
// groups in first-observation order (metrics name-sorted within each), then
// traffic rings CDN-sorted — the deterministic orders ExportState already
// guarantees, so equal collector states encode equal bytes.
func (q *QoE) EncodeState(buf []byte) []byte {
	st := q.col.ExportState()
	buf = putUvarint(buf, st.Ingested)
	buf = putUvarint(buf, uint64(len(st.Groups)))
	for _, g := range st.Groups {
		buf = putStr(buf, g.Key.ClientISP)
		buf = putStr(buf, g.Key.CDN)
		buf = putStr(buf, g.Key.Cluster)
		buf = putUvarint(buf, uint64(len(g.Metrics)))
		for _, m := range g.Metrics {
			buf = putStr(buf, m.Name)
			buf = putUvarint(buf, m.Welford.N)
			buf = putF64(buf, m.Welford.Mean)
			buf = putF64(buf, m.Welford.M2)
			buf = putF64(buf, m.Welford.Min)
			buf = putF64(buf, m.Welford.Max)
		}
	}
	buf = putUvarint(buf, uint64(len(st.Traffic)))
	for _, t := range st.Traffic {
		buf = putStr(buf, t.CDN)
		buf = putWindowed(buf, t.Bits)
		buf = putWindowed(buf, t.Sessions)
	}
	return buf
}

func putWindowed(buf []byte, st agg.WindowedState) []byte {
	buf = putI64(buf, int64(st.BucketDur))
	buf = putUvarint(buf, uint64(len(st.Buckets)))
	for i := range st.Buckets {
		buf = putF64(buf, st.Buckets[i])
		buf = putI64(buf, int64(st.Starts[i]))
	}
	return buf
}

func (q *QoE) DecodeState(p []byte) error {
	r := &reader{b: p}
	var st core.CollectorState
	st.Ingested = r.uvarint("qoe ingested")
	ng := r.uvarint("qoe group count")
	for i := uint64(0); r.err == nil && i < ng; i++ {
		var g core.GroupState
		g.Key.ClientISP = r.str("group isp")
		g.Key.CDN = r.str("group cdn")
		g.Key.Cluster = r.str("group cluster")
		nm := r.uvarint("group metric count")
		for j := uint64(0); r.err == nil && j < nm; j++ {
			var m core.MetricState
			m.Name = r.str("metric name")
			m.Welford.N = r.uvarint("metric n")
			m.Welford.Mean = r.f64("metric mean")
			m.Welford.M2 = r.f64("metric m2")
			m.Welford.Min = r.f64("metric min")
			m.Welford.Max = r.f64("metric max")
			g.Metrics = append(g.Metrics, m)
		}
		st.Groups = append(st.Groups, g)
	}
	nt := r.uvarint("qoe traffic count")
	for i := uint64(0); r.err == nil && i < nt; i++ {
		var t core.TrafficState
		t.CDN = r.str("traffic cdn")
		t.Bits = readWindowed(r, "traffic bits")
		t.Sessions = readWindowed(r, "traffic sessions")
		st.Traffic = append(st.Traffic, t)
	}
	if err := r.done("qoe state"); err != nil {
		return err
	}
	q.Reset()
	return q.col.ImportState(st)
}

func readWindowed(r *reader, what string) agg.WindowedState {
	var st agg.WindowedState
	st.BucketDur = time.Duration(r.i64(what + " bucket duration"))
	n := r.uvarint(what + " bucket count")
	if r.err == nil && n > uint64(len(r.b))/16+1 {
		r.fail(what + " buckets")
	}
	for i := uint64(0); r.err == nil && i < n; i++ {
		st.Buckets = append(st.Buckets, r.f64(what+" bucket"))
		st.Starts = append(st.Starts, time.Duration(r.i64(what+" bucket start")))
	}
	return st
}
