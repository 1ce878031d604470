package core

import (
	"sort"
	"time"

	"eona/internal/agg"
	"eona/internal/privacy"
)

// ExportPolicy controls how much an A2I export reveals — the §4 knob for
// "balancing effectiveness vs. minimality". The zero value exports
// everything exactly.
type ExportPolicy struct {
	// MinGroupSessions suppresses summary groups with fewer sessions
	// (k-anonymity). 0 or 1 disables suppression.
	MinGroupSessions uint64
	// NoiseEpsilon, when positive, adds Laplace noise with this ε to
	// exported counts and means.
	NoiseEpsilon float64
	// CoarsenScoreStep, when positive, rounds exported mean scores down
	// to multiples of this step.
	CoarsenScoreStep float64
}

// Collector is the AppP-side A2I producer: it ingests per-session
// QoERecords and serves blinded, windowed summaries and traffic estimates.
// Ingest is O(1) per record (see BenchmarkCollectorIngest and E7).
type Collector struct {
	AppP   string
	Policy ExportPolicy

	rollup *agg.Rollup[SummaryKey]
	// traffic accumulates bit-volume and session counts per CDN over a
	// sliding window to produce TrafficEstimates.
	trafficBits     map[string]*agg.Windowed
	trafficSessions map[string]*agg.Windowed
	window          time.Duration
	noiser          *privacy.Noiser
	volNoiser       *privacy.Noiser
	ingested        uint64
}

// volumeSensitivity is the assumed max contribution of one session to a
// traffic-volume estimate (a high-rung stream), used to scale Laplace noise
// on exported volumes.
const volumeSensitivity = 3e6

// NewA2ICollector builds the collector cfg describes. cfg.Window sizes the
// traffic estimate window (default 5 minutes if zero); cfg.Seed feeds the
// privacy noisers.
func NewA2ICollector(cfg CollectorConfig) *Collector {
	window := cfg.Window
	if window <= 0 {
		window = 5 * time.Minute
	}
	return &Collector{
		AppP:            cfg.AppP,
		Policy:          cfg.Policy,
		rollup:          agg.NewRollup[SummaryKey](),
		trafficBits:     make(map[string]*agg.Windowed),
		trafficSessions: make(map[string]*agg.Windowed),
		window:          window,
		noiser:          privacy.NewNoiser(cfg.Policy.NoiseEpsilon, 1, cfg.Seed),
		volNoiser:       privacy.NewNoiser(cfg.Policy.NoiseEpsilon, volumeSensitivity, cfg.Seed+1),
	}
}

// Ingest records one finished session.
func (c *Collector) Ingest(rec QoERecord) {
	c.ingested++
	key := SummaryKey{ClientISP: rec.ClientISP, CDN: rec.CDN, Cluster: rec.Cluster}
	c.rollup.Observe(key, "score", rec.Score)
	c.rollup.Observe(key, "bufratio", rec.BufferingRatio)
	c.rollup.Observe(key, "bitrate", rec.AvgBitrateBps)
	c.rollup.Observe(key, "startup", rec.StartupDelay.Seconds())
	abandoned := 0.0
	if rec.Abandoned {
		abandoned = 1
	}
	c.rollup.Observe(key, "abandoned", abandoned)

	wb, ok := c.trafficBits[rec.CDN]
	if !ok {
		wb = agg.NewWindowed(10, c.window/10)
		c.trafficBits[rec.CDN] = wb
		c.trafficSessions[rec.CDN] = agg.NewWindowed(10, c.window/10)
	}
	wb.Add(rec.Timestamp, rec.AvgBitrateBps*rec.PlayTime.Seconds())
	c.trafficSessions[rec.CDN].Add(rec.Timestamp, 1)
}

// Ingested returns the total number of records ingested.
func (c *Collector) Ingested() uint64 { return c.ingested }

// Summaries returns the per-group A2I summaries blinded under the
// collector's own policy.
func (c *Collector) Summaries() []QoESummary {
	return c.summariesUnder(c.Policy, c.noiser)
}

// SummariesUnder returns the summaries blinded under a different policy —
// the §4 requirement that providers "must be able to specify what can or
// cannot be shared" per collaborator. seed keeps each partner's noise
// stream independent and reproducible.
func (c *Collector) SummariesUnder(policy ExportPolicy, seed int64) []QoESummary {
	return c.summariesUnder(policy, privacy.NewNoiser(policy.NoiseEpsilon, 1, seed))
}

// summariesUnder renders every group, in first-observation order, under a
// policy. Suppressed groups are skipped; noise is drawn only for surviving
// groups, in key order, so the noiser stream position is a deterministic
// function of the exported set. With no group left it returns nil, which
// encodes as null, not [].
func (c *Collector) summariesUnder(policy ExportPolicy, noiser *privacy.Noiser) []QoESummary {
	keys := c.rollup.Keys()
	out := make([]QoESummary, 0, len(keys))
	for _, k := range keys {
		if s, ok := summarizeGroup(c.rollup.Group(k), k, policy, noiser); ok {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// summarizeGroup renders one group under a policy, reporting false when the
// group is absent or suppressed by k-anonymity.
func summarizeGroup(g *agg.Group, k SummaryKey, policy ExportPolicy, noiser *privacy.Noiser) (QoESummary, bool) {
	if g == nil {
		return QoESummary{}, false
	}
	sessions := g.Metric("score").Count()
	if policy.MinGroupSessions > 1 && sessions < policy.MinGroupSessions {
		return QoESummary{}, false
	}
	s := QoESummary{
		Key:                k,
		Sessions:           float64(sessions),
		MeanScore:          g.Metric("score").Mean(),
		MeanBufferingRatio: g.Metric("bufratio").Mean(),
		MeanBitrateBps:     g.Metric("bitrate").Mean(),
		MeanStartupSec:     g.Metric("startup").Mean(),
		AbandonmentRate:    g.Metric("abandoned").Mean(),
	}
	if policy.NoiseEpsilon > 0 {
		s.Sessions = noiser.NoisyCount(sessions)
		s.MeanScore = clampScore(noiser.Noise(s.MeanScore))
		s.MeanBufferingRatio = clamp01(noiser.Noise(s.MeanBufferingRatio))
	}
	s.MeanScore = privacy.CoarsenFloat(s.MeanScore, policy.CoarsenScoreStep)
	return s, true
}

// SummaryFor returns the summary for one group, if it survives blinding.
// It renders only the requested group — O(1) in the number of groups,
// where it used to materialize every summary per lookup.
func (c *Collector) SummaryFor(key SummaryKey) (QoESummary, bool) {
	return summarizeGroup(c.rollup.Group(key), key, c.Policy, c.noiser)
}

// TrafficEstimates returns per-CDN demand estimates over the window ending
// at now: mean bits/s plus sessions completed in the window. With no CDN
// seen it returns nil, which encodes as null, not [].
func (c *Collector) TrafficEstimates(now time.Duration) []TrafficEstimate {
	if len(c.trafficBits) == 0 {
		return nil
	}
	out := make([]TrafficEstimate, 0, len(c.trafficBits))
	// Deterministic order: iterate CDNs sorted.
	cdns := make([]string, 0, len(c.trafficBits))
	for cdnName := range c.trafficBits {
		cdns = append(cdns, cdnName)
	}
	sort.Strings(cdns)
	for _, cdnName := range cdns {
		bits := c.trafficBits[cdnName].Sum(now)
		sessions := c.trafficSessions[cdnName].Sum(now)
		est := TrafficEstimate{
			AppP:      c.AppP,
			CDN:       cdnName,
			VolumeBps: bits / c.window.Seconds(),
			Sessions:  sessions,
		}
		if c.Policy.NoiseEpsilon > 0 {
			est.Sessions = c.noiser.NoisyCount(uint64(est.Sessions))
			if v := c.volNoiser.Noise(est.VolumeBps); v > 0 {
				est.VolumeBps = v
			} else {
				est.VolumeBps = 0
			}
		}
		out = append(out, est)
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampScore(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
