package projection

import (
	"encoding/binary"
	"time"

	"eona/internal/agg"
	"eona/internal/core"
	"eona/internal/journal"
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
	buf = binary.AppendUvarint(buf, st.Ingested)
	buf = binary.AppendUvarint(buf, uint64(len(st.Groups)))
	for _, g := range st.Groups {
		buf = journal.AppendStr(buf, g.Key.ClientISP)
		buf = journal.AppendStr(buf, g.Key.CDN)
		buf = journal.AppendStr(buf, g.Key.Cluster)
		buf = binary.AppendUvarint(buf, uint64(len(g.Metrics)))
		for _, m := range g.Metrics {
			buf = journal.AppendStr(buf, m.Name)
			buf = binary.AppendUvarint(buf, m.Welford.N)
			buf = journal.AppendF64(buf, m.Welford.Mean)
			buf = journal.AppendF64(buf, m.Welford.M2)
			buf = journal.AppendF64(buf, m.Welford.Min)
			buf = journal.AppendF64(buf, m.Welford.Max)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Traffic)))
	for _, t := range st.Traffic {
		buf = journal.AppendStr(buf, t.CDN)
		buf = putWindowed(buf, t.Bits)
		buf = putWindowed(buf, t.Sessions)
	}
	return buf
}

func putWindowed(buf []byte, st agg.WindowedState) []byte {
	buf = journal.AppendI64(buf, int64(st.BucketDur))
	buf = binary.AppendUvarint(buf, uint64(len(st.Buckets)))
	for i := range st.Buckets {
		buf = journal.AppendF64(buf, st.Buckets[i])
		buf = journal.AppendI64(buf, int64(st.Starts[i]))
	}
	return buf
}

func (q *QoE) DecodeState(p []byte) error {
	r := journal.NewPayloadReader(p)
	var st core.CollectorState
	st.Ingested = r.Uvarint("qoe ingested")
	ng := r.Uvarint("qoe group count")
	for i := uint64(0); r.Err() == nil && i < ng; i++ {
		var g core.GroupState
		g.Key.ClientISP = r.Str("group isp")
		g.Key.CDN = r.Str("group cdn")
		g.Key.Cluster = r.Str("group cluster")
		nm := r.Uvarint("group metric count")
		for j := uint64(0); r.Err() == nil && j < nm; j++ {
			var m core.MetricState
			m.Name = r.Str("metric name")
			m.Welford.N = r.Uvarint("metric n")
			m.Welford.Mean = r.F64("metric mean")
			m.Welford.M2 = r.F64("metric m2")
			m.Welford.Min = r.F64("metric min")
			m.Welford.Max = r.F64("metric max")
			g.Metrics = append(g.Metrics, m)
		}
		st.Groups = append(st.Groups, g)
	}
	nt := r.Uvarint("qoe traffic count")
	for i := uint64(0); r.Err() == nil && i < nt; i++ {
		var t core.TrafficState
		t.CDN = r.Str("traffic cdn")
		t.Bits = readWindowed(r, "traffic bits")
		t.Sessions = readWindowed(r, "traffic sessions")
		st.Traffic = append(st.Traffic, t)
	}
	if err := r.Done("qoe state"); err != nil {
		return err
	}
	q.Reset()
	return q.col.ImportState(st)
}

func readWindowed(r *journal.PayloadReader, what string) agg.WindowedState {
	var st agg.WindowedState
	st.BucketDur = time.Duration(r.I64(what + " bucket duration"))
	n := r.Uvarint(what + " bucket count")
	if r.Err() == nil && n > uint64(r.Len())/16+1 {
		r.Fail(what + " buckets")
	}
	for i := uint64(0); r.Err() == nil && i < n; i++ {
		st.Buckets = append(st.Buckets, r.F64(what+" bucket"))
		st.Starts = append(st.Starts, time.Duration(r.I64(what+" bucket start")))
	}
	return st
}
