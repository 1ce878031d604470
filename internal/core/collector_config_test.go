package core

import (
	"reflect"
	"testing"
	"time"
)

// TestNewA2ICollectorPinsSeam pins the one constructor against the outputs
// the removed positional NewCollector(appP, policy, window, seed) produced
// for the same record stream, captured as literals before it was deleted:
// the zero config (anonymous AppP, exact exports, 5-minute window, seed 0)
// and a fully-populated one (k-anonymity, noise, coarsening, 1-minute
// window, seed 9 — so the noiser streams are pinned too).
func TestNewA2ICollectorPinsSeam(t *testing.T) {
	var recs []QoERecord
	for i := 0; i < 12; i++ {
		r := rec("isp1", []string{"cdnX", "cdnY"}[i%2], "east", float64(40+5*i), float64(i)/100, time.Duration(i)*5*time.Second)
		r.StartupDelay = time.Duration(i) * 100 * time.Millisecond
		r.Abandoned = i%4 == 0
		recs = append(recs, r)
	}
	recs = append(recs, rec("isp2", "cdnX", "west", 90, 0, 30*time.Second))

	xEast := SummaryKey{ClientISP: "isp1", CDN: "cdnX", Cluster: "east"}
	yEast := SummaryKey{ClientISP: "isp1", CDN: "cdnY", Cluster: "east"}
	xWest := SummaryKey{ClientISP: "isp2", CDN: "cdnX", Cluster: "west"}
	for _, tc := range []struct {
		name      string
		cfg       CollectorConfig
		summaries []QoESummary
		traffic   []TrafficEstimate
	}{
		{
			name: "zero",
			cfg:  CollectorConfig{},
			summaries: []QoESummary{
				{Key: xEast, Sessions: 6, MeanScore: 65, MeanBufferingRatio: 0.05, MeanBitrateBps: 2e+06, MeanStartupSec: 0.5, AbandonmentRate: 0.5},
				{Key: yEast, Sessions: 6, MeanScore: 70, MeanBufferingRatio: 0.060000000000000005, MeanBitrateBps: 2e+06, MeanStartupSec: 0.6, AbandonmentRate: 0},
				{Key: xWest, Sessions: 1, MeanScore: 90, MeanBufferingRatio: 0, MeanBitrateBps: 2e+06, MeanStartupSec: 0, AbandonmentRate: 0},
			},
			traffic: []TrafficEstimate{
				{AppP: "", CDN: "cdnX", VolumeBps: 2.8e+07, Sessions: 7},
				{AppP: "", CDN: "cdnY", VolumeBps: 2.4e+07, Sessions: 6},
			},
		},
		{
			name: "full",
			cfg: CollectorConfig{
				AppP:   "vod",
				Policy: ExportPolicy{MinGroupSessions: 3, NoiseEpsilon: 2, CoarsenScoreStep: 5},
				Window: time.Minute,
				Seed:   9,
			},
			summaries: []QoESummary{
				{Key: xEast, Sessions: 3.539650240114467, MeanScore: 60, MeanBufferingRatio: 0.07309830300099891, MeanBitrateBps: 2e+06, MeanStartupSec: 0.5, AbandonmentRate: 0.5},
				{Key: yEast, Sessions: 6.327088700767754, MeanScore: 65, MeanBufferingRatio: 0.267799445866344, MeanBitrateBps: 2e+06, MeanStartupSec: 0.6, AbandonmentRate: 0},
			},
			traffic: []TrafficEstimate{
				{AppP: "vod", CDN: "cdnX", VolumeBps: 1.4021266358046496e+08, Sessions: 7.025436436249057},
				{AppP: "vod", CDN: "cdnY", VolumeBps: 1.1973006069085406e+08, Sessions: 6.244719961253518},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewA2ICollector(tc.cfg)
			c.IngestBatch(recs)
			if got := c.Summaries(); !reflect.DeepEqual(got, tc.summaries) {
				t.Errorf("summaries = %#v\nwant %#v", got, tc.summaries)
			}
			if got := c.TrafficEstimates(time.Minute); !reflect.DeepEqual(got, tc.traffic) {
				t.Errorf("traffic estimates = %#v\nwant %#v", got, tc.traffic)
			}
		})
	}
}
