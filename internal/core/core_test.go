package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"eona/internal/qoe"
)

func rec(ispName, cdnName, cluster string, score, bufratio float64, at time.Duration) QoERecord {
	return QoERecord{
		SessionID:      "s",
		Timestamp:      at,
		AppP:           "vod",
		ClientISP:      ispName,
		CDN:            cdnName,
		Cluster:        cluster,
		Score:          score,
		BufferingRatio: bufratio,
		AvgBitrateBps:  2e6,
		PlayTime:       10 * time.Minute,
	}
}

func TestCollectorSummaries(t *testing.T) {
	c := NewA2ICollector(CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	c.Ingest(rec("isp1", "cdnX", "east", 80, 0.01, 0))
	c.Ingest(rec("isp1", "cdnX", "east", 60, 0.03, time.Second))
	c.Ingest(rec("isp1", "cdnY", "west", 40, 0.10, time.Second))
	sums := c.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	x, ok := c.SummaryFor(SummaryKey{ClientISP: "isp1", CDN: "cdnX", Cluster: "east"})
	if !ok {
		t.Fatal("cdnX summary missing")
	}
	if x.Sessions != 2 || x.MeanScore != 70 {
		t.Errorf("cdnX summary = %+v", x)
	}
	if math.Abs(x.MeanBufferingRatio-0.02) > 1e-12 {
		t.Errorf("mean bufratio = %v, want 0.02", x.MeanBufferingRatio)
	}
	if c.Ingested() != 3 {
		t.Errorf("Ingested = %d", c.Ingested())
	}
}

func TestCollectorKAnonymity(t *testing.T) {
	c := NewA2ICollector(CollectorConfig{AppP: "vod", Policy: ExportPolicy{MinGroupSessions: 3}, Window: time.Minute, Seed: 1})
	for i := 0; i < 3; i++ {
		c.Ingest(rec("isp1", "cdnX", "east", 80, 0, 0))
	}
	c.Ingest(rec("isp1", "cdnY", "west", 40, 0, 0)) // only 1 session
	sums := c.Summaries()
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1 (small group suppressed)", len(sums))
	}
	if sums[0].Key.CDN != "cdnX" {
		t.Errorf("surviving group = %+v", sums[0].Key)
	}
	if _, ok := c.SummaryFor(SummaryKey{ClientISP: "isp1", CDN: "cdnY", Cluster: "west"}); ok {
		t.Error("suppressed group still visible via SummaryFor")
	}
}

func TestCollectorNoise(t *testing.T) {
	exact := NewA2ICollector(CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	noisy := NewA2ICollector(CollectorConfig{AppP: "vod", Policy: ExportPolicy{NoiseEpsilon: 0.5}, Window: time.Minute, Seed: 1})
	for i := 0; i < 50; i++ {
		r := rec("isp1", "cdnX", "east", 70, 0.02, 0)
		exact.Ingest(r)
		noisy.Ingest(r)
	}
	e := exact.Summaries()[0]
	n := noisy.Summaries()[0]
	if e.MeanScore != 70 {
		t.Fatalf("exact mean = %v", e.MeanScore)
	}
	if n.MeanScore == 70 && n.Sessions == 50 {
		t.Error("noise policy produced exact values (suspicious)")
	}
	if n.MeanScore < 0 || n.MeanScore > 100 || n.MeanBufferingRatio < 0 || n.MeanBufferingRatio > 1 {
		t.Errorf("noised values out of range: %+v", n)
	}
}

func TestCollectorCoarsening(t *testing.T) {
	c := NewA2ICollector(CollectorConfig{AppP: "vod", Policy: ExportPolicy{CoarsenScoreStep: 10}, Window: time.Minute, Seed: 1})
	c.Ingest(rec("isp1", "cdnX", "east", 77, 0, 0))
	s := c.Summaries()[0]
	if s.MeanScore != 70 {
		t.Errorf("coarsened score = %v, want 70", s.MeanScore)
	}
}

func TestTrafficEstimates(t *testing.T) {
	c := NewA2ICollector(CollectorConfig{AppP: "vod", Window: time.Minute, Seed: 1})
	// 2 Mbps × 600s of play = 1.2e9 bits within the window buckets.
	c.Ingest(rec("isp1", "cdnX", "east", 80, 0, 30*time.Second))
	c.Ingest(rec("isp1", "cdnY", "west", 80, 0, 30*time.Second))
	c.Ingest(rec("isp1", "cdnX", "east", 80, 0, 45*time.Second))
	ests := c.TrafficEstimates(time.Minute)
	if len(ests) != 2 {
		t.Fatalf("estimates = %d, want 2", len(ests))
	}
	if ests[0].CDN != "cdnX" || ests[1].CDN != "cdnY" {
		t.Errorf("estimate order = %v,%v (want sorted)", ests[0].CDN, ests[1].CDN)
	}
	if ests[0].Sessions != 2 || ests[1].Sessions != 1 {
		t.Errorf("session counts = %v,%v", ests[0].Sessions, ests[1].Sessions)
	}
	if ests[0].VolumeBps <= ests[1].VolumeBps {
		t.Error("cdnX volume should exceed cdnY")
	}
	// Outside the window everything ages out.
	later := c.TrafficEstimates(time.Hour)
	for _, e := range later {
		if e.Sessions != 0 {
			t.Errorf("stale estimate = %+v", e)
		}
	}
}

func TestRecordFrom(t *testing.T) {
	model := qoe.DefaultModel()
	m := qoe.SessionMetrics{
		StartupDelay:  time.Second,
		PlayTime:      9 * time.Minute,
		BufferingTime: time.Minute,
		AvgBitrate:    3e6,
		CDNSwitches:   2,
		Abandoned:     true,
	}
	r := RecordFrom(model, m, "sess-1", "vod", "isp1", "cdnX", "east", 42*time.Second)
	if r.SessionID != "sess-1" || r.ClientISP != "isp1" || r.CDN != "cdnX" {
		t.Errorf("attributes wrong: %+v", r)
	}
	if math.Abs(r.BufferingRatio-0.1) > 1e-9 {
		t.Errorf("bufratio = %v, want 0.1", r.BufferingRatio)
	}
	if r.Score != model.Score(m) {
		t.Errorf("score = %v, want %v", r.Score, model.Score(m))
	}
	if !r.Abandoned || r.CDNSwitches != 2 {
		t.Error("flags not propagated")
	}
}

func TestDelayedVisibility(t *testing.T) {
	d := NewDelayed[int](10 * time.Second)
	if _, ok := d.Get(0); ok {
		t.Error("empty store returned a value")
	}
	d.Set(0, 1)
	if _, ok := d.Get(5 * time.Second); ok {
		t.Error("value visible before delay elapsed")
	}
	if v, ok := d.Get(10 * time.Second); !ok || v != 1 {
		t.Errorf("Get(10s) = %v,%v want 1,true", v, ok)
	}
	d.Set(20*time.Second, 2)
	if v, _ := d.Get(25 * time.Second); v != 1 {
		t.Errorf("Get(25s) = %v, want still 1", v)
	}
	if v, _ := d.Get(30 * time.Second); v != 2 {
		t.Errorf("Get(30s) = %v, want 2", v)
	}
	if age, ok := d.Age(30 * time.Second); !ok || age != 10*time.Second {
		t.Errorf("Age = %v,%v", age, ok)
	}
}

func TestDelayedZeroDelay(t *testing.T) {
	d := NewDelayed[string](0)
	d.Set(time.Second, "fresh")
	if v, ok := d.Get(time.Second); !ok || v != "fresh" {
		t.Error("zero-delay store should be immediately visible")
	}
}

func TestDelayedPrunes(t *testing.T) {
	d := NewDelayed[int](time.Second)
	for i := 0; i < 100; i++ {
		d.Set(time.Duration(i)*time.Second, i)
	}
	if d.Len() > 3 {
		t.Errorf("retained %d entries, want pruning", d.Len())
	}
	if v, _ := d.Get(100 * time.Second); v != 99 {
		t.Errorf("latest visible = %v, want 99", v)
	}
}

func TestDelayedValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative delay did not panic")
			}
		}()
		NewDelayed[int](-time.Second)
	}()
	d := NewDelayed[int](0)
	d.Set(10*time.Second, 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Set did not panic")
		}
	}()
	d.Set(5*time.Second, 2)
}

func TestSegmentStrings(t *testing.T) {
	cases := map[BottleneckSegment]string{
		SegmentNone: "none", SegmentAccess: "access",
		SegmentPeering: "peering", SegmentCDN: "cdn",
		BottleneckSegment(99): "unknown",
	}
	for seg, want := range cases {
		if seg.String() != want {
			t.Errorf("%d.String() = %q, want %q", seg, seg.String(), want)
		}
	}
}

// genRecords builds a deterministic stream of QoERecords spread over many
// sessions, ISPs, CDNs, and clusters.
func genRecords(n int, seed int64) []QoERecord {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]QoERecord, n)
	for i := range recs {
		recs[i] = QoERecord{
			SessionID:      fmt.Sprintf("sess-%d", rng.Intn(n/2+1)),
			Timestamp:      time.Duration(i) * 7 * time.Millisecond,
			AppP:           "appp-1",
			ClientISP:      fmt.Sprintf("isp%d", rng.Intn(5)),
			CDN:            fmt.Sprintf("cdn%d", rng.Intn(3)),
			Cluster:        fmt.Sprintf("cl%d", rng.Intn(4)),
			Score:          rng.Float64() * 100,
			BufferingRatio: rng.Float64() * 0.2,
			AvgBitrateBps:  1e6 + rng.Float64()*4e6,
			StartupDelay:   time.Duration(rng.Intn(4000)) * time.Millisecond,
			PlayTime:       time.Duration(30+rng.Intn(300)) * time.Second,
			Abandoned:      rng.Intn(10) == 0,
		}
	}
	return recs
}

func BenchmarkCollectorIngest(b *testing.B) {
	recs := genRecords(1<<14, 1)
	c := NewA2ICollector(CollectorConfig{AppP: "appp-1", Window: time.Minute, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Ingest(recs[i&(1<<14-1)])
	}
}

// TestIngestAllocFree pins Collector.Ingest at zero allocations in steady
// state: once the rollup groups and per-CDN traffic windows exist, ingesting
// another record must not allocate (the E7 hot loop runs millions of these).
func TestIngestAllocFree(t *testing.T) {
	recs := genRecords(1<<12, 1)
	c := NewA2ICollector(CollectorConfig{AppP: "appp-1", Window: time.Minute, Seed: 1})
	for _, r := range recs {
		c.Ingest(r) // warm every group and window
	}
	i := 0
	op := func() {
		c.Ingest(recs[i&(1<<12-1)])
		i++
	}
	if a := testing.AllocsPerRun(500, op); a != 0 {
		t.Errorf("Collector.Ingest allocates %v allocs/op in steady state, want 0", a)
	}
}
