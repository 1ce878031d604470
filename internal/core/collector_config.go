package core

import "time"

// CollectorConfig is the one constructor input for A2I collectors. The zero
// value is runnable: anonymous AppP, export-everything policy, 5-minute
// traffic window, seed 0.
type CollectorConfig struct {
	// AppP names the application provider the collector aggregates for.
	AppP string
	// Policy is the default blinding applied to exports.
	Policy ExportPolicy
	// Window sizes the traffic-estimate window (default 5 minutes).
	Window time.Duration
	// Seed feeds the privacy noisers; per-partner streams are derived from
	// it, so runs are reproducible.
	Seed int64
}

// A2ICollector is the one ingest seam: the collector surface the rest of
// the system consumes, implemented by *Collector.
type A2ICollector interface {
	// Ingest records one finished session.
	Ingest(rec QoERecord)
	// IngestBatch records a batch of finished sessions.
	IngestBatch(recs []QoERecord)
	// Ingested returns the total number of records ingested.
	Ingested() uint64
	// Summaries returns the per-group exports under the default policy.
	Summaries() []QoESummary
	// SummariesUnder re-blinds the exports under a partner's policy.
	SummariesUnder(policy ExportPolicy, seed int64) []QoESummary
	// SummaryFor returns one group's export, if it survives blinding.
	SummaryFor(key SummaryKey) (QoESummary, bool)
	// TrafficEstimates returns per-CDN demand estimates at now.
	TrafficEstimates(now time.Duration) []TrafficEstimate
}

var _ A2ICollector = (*Collector)(nil)

// IngestBatch records a batch of finished sessions.
func (c *Collector) IngestBatch(recs []QoERecord) {
	for _, rec := range recs {
		c.Ingest(rec)
	}
}
