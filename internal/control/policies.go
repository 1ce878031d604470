// Package control implements the control loops of §5 — both the status-quo
// baselines the paper criticizes and their EONA-enhanced versions:
//
//   - AppP side: BaselineAppP is the trial-and-error CDN switcher ("if QoE
//     is bad, switch CDN"); EONAAppP reads I2A peering hints and bottleneck
//     attribution to pick the *right* reaction (cap bitrate on access
//     congestion, sit tight while the ISP re-routes a congested peering,
//     switch CDN only when the CDN itself is the problem).
//   - InfP side: BaselineInfP is cost-greedy utilization-reactive traffic
//     engineering (the Figure 5 oscillator); EONAInfP sizes its egress
//     choice with the A2I per-CDN traffic estimate so decisions stick.
//
// Policies are pure decision functions over observation snapshots; the
// mechanisms they drive live in internal/isp and internal/player, and the
// scenario harness in internal/expt wires them together. Every policy is
// deterministic.
package control

import (
	"sort"

	"eona/internal/core"
	"eona/internal/isp"
	"eona/internal/netsim"
	"eona/internal/stability"
)

// CDNStat is the AppP's own view of one CDN option.
type CDNStat struct {
	Name string
	// Score is the recent mean QoE score observed on this CDN; zero if
	// the AppP has no recent sessions there.
	Score float64
	// ServingCapacityBps is the AppP's contracted estimate of what the
	// CDN can serve it (known from its CDN contracts, not from EONA).
	ServingCapacityBps float64
}

// I2AView is the slice of InfP state visible to an AppP through EONA-I2A.
// A nil view means the AppP is running without EONA.
type I2AView struct {
	Peering     []core.PeeringInfo
	Attribution map[string]core.Attribution
}

// AppPObs is one epoch's observation for the AppP policy.
type AppPObs struct {
	// Current is the CDN currently carrying the traffic.
	Current string
	// Score is the recent mean QoE score on the current CDN.
	Score float64
	// DemandBps is the AppP's own aggregate demand estimate.
	DemandBps float64
	// CDNs lists all options including the current one.
	CDNs []CDNStat
	// I2A is the EONA view (nil for baseline operation).
	I2A *I2AView
	// I2AConfidence grades how much the I2A view is still to be trusted
	// (1 = fresh exchange, decaying toward 0 with staleness — see
	// lookingglass.DecayConfidence). Only consulted by policies with a
	// ConfidenceFloor set; zero is fine for fully-fresh operation.
	I2AConfidence float64
}

// AppPDecision is the AppP's knob settings for the next epoch.
type AppPDecision struct {
	// CDN to route sessions to.
	CDN string
	// BitrateCapBps caps per-session bitrate (0 = uncapped) — the
	// Figure 3 reaction to access congestion.
	BitrateCapBps float64
}

// AppPPolicy decides AppP knobs each control epoch.
type AppPPolicy interface {
	Decide(AppPObs) AppPDecision
}

// BaselineAppP is today's trial-and-error control: if the current CDN's
// recent score drops below Threshold, rotate to the next CDN. It has no
// visibility into why quality dropped — exactly the "coarse control" and
// "lack of visibility" problems of §2.
type BaselineAppP struct {
	// Threshold is the QoE score below which the AppP switches away.
	Threshold float64
}

// Decide implements AppPPolicy.
func (b *BaselineAppP) Decide(obs AppPObs) AppPDecision {
	if obs.Score >= b.Threshold || len(obs.CDNs) < 2 {
		return AppPDecision{CDN: obs.Current}
	}
	// Rotate to the next CDN in listed order.
	names := cdnNames(obs.CDNs)
	idx := indexOf(names, obs.Current)
	next := names[(idx+1)%len(names)]
	return AppPDecision{CDN: next}
}

// EONAAppP uses the I2A view to react to the actual bottleneck.
type EONAAppP struct {
	// Threshold is the score below which the AppP investigates.
	Threshold float64
	// CapHeadroom discounts the InfP's suggested bitrate cap (0.9 means
	// run at 90% of the suggestion).
	CapHeadroom float64
	// Hysteresis dampens CDN switches; nil disables dampening.
	Hysteresis *stability.Hysteresis
	// ConfidenceFloor, when positive, is the minimum obs.I2AConfidence at
	// which the policy still trusts the I2A view. Below it the hints are
	// treated as absent and the policy degrades to exactly the baseline
	// decision rule — acting on a sufficiently stale attribution is worse
	// than acting on none (the E15 chaos result). Zero keeps the legacy
	// always-trust behaviour.
	ConfidenceFloor float64
}

// Decide implements AppPPolicy.
func (e *EONAAppP) Decide(obs AppPObs) AppPDecision {
	if obs.I2A == nil || (e.ConfidenceFloor > 0 && obs.I2AConfidence < e.ConfidenceFloor) {
		// Degrade gracefully to baseline behaviour: no hints, or hints
		// too stale to act on.
		return (&BaselineAppP{Threshold: e.Threshold}).Decide(obs)
	}
	dec := AppPDecision{CDN: obs.Current}
	att, hasAtt := obs.I2A.Attribution[obs.Current]
	if obs.Score >= e.Threshold {
		// Healthy: stay, and lift any cap unless the InfP still
		// reports access congestion.
		if hasAtt && att.Segment == core.SegmentAccess && att.SuggestedCapBps > 0 {
			dec.BitrateCapBps = e.cap(att.SuggestedCapBps)
		}
		return dec
	}
	if !hasAtt {
		return dec // degraded but no attribution yet: hold (dampened)
	}
	switch att.Segment {
	case core.SegmentAccess:
		// Figure 3: the bottleneck is the ISP's own access network.
		// Switching CDNs cannot help; adapt bitrate down instead.
		if att.SuggestedCapBps > 0 {
			dec.BitrateCapBps = e.cap(att.SuggestedCapBps)
		}
		return dec
	case core.SegmentPeering:
		// §4: attribute the problem to the peering point, not the
		// CDN. If the ISP has (or is moving to) an uncongested
		// peering for this CDN, stay put.
		if hasViablePeering(obs.I2A.Peering, obs.Current) {
			return dec
		}
		// No viable peering for this CDN at all: a different CDN
		// with a viable peering is genuinely better.
		if alt, ok := e.bestAlternative(obs); ok {
			dec.CDN = alt
		}
		return dec
	case core.SegmentCDN, core.SegmentNone:
		// Either the InfP points at the CDN, or it reports no
		// congestion on its own side while QoE is bad — in both
		// cases the ISP is exonerated and switching CDN is the right
		// move (if a viable, adequately sized alternative exists).
		if alt, ok := e.bestAlternative(obs); ok {
			dec.CDN = alt
		}
		return dec
	default:
		return dec
	}
}

func (e *EONAAppP) cap(suggested float64) float64 {
	h := e.CapHeadroom
	if h <= 0 || h > 1 {
		h = 1
	}
	return suggested * h
}

// bestAlternative picks the non-current CDN with a viable peering and the
// highest score, applying hysteresis when configured.
func (e *EONAAppP) bestAlternative(obs AppPObs) (string, bool) {
	var best *CDNStat
	for i := range obs.CDNs {
		c := &obs.CDNs[i]
		if c.Name == obs.Current {
			continue
		}
		if !hasViablePeering(obs.I2A.Peering, c.Name) {
			continue
		}
		if c.ServingCapacityBps > 0 && obs.DemandBps > 0 && c.ServingCapacityBps < obs.DemandBps {
			continue // known too small: the Figure 5 CDN-Y trap
		}
		if best == nil || c.Score > best.Score || (c.Score == best.Score && c.Name < best.Name) {
			best = c
		}
	}
	if best == nil {
		return "", false
	}
	if e.Hysteresis != nil {
		choice := e.Hysteresis.Decide(obs.Score, best.Name, best.Score)
		if choice != best.Name {
			return "", false
		}
	}
	return best.Name, true
}

func hasViablePeering(infos []core.PeeringInfo, cdnName string) bool {
	for _, p := range infos {
		if p.CDN != cdnName {
			continue
		}
		if p.Congestion <= netsim.CongestionModerate {
			return true
		}
	}
	return false
}

// A2IView is the slice of AppP state visible to an InfP through EONA-A2I.
// Nil means the InfP runs without EONA.
type A2IView struct {
	Traffic []core.TrafficEstimate
}

// InfPObs is one epoch's observation for the InfP policy.
type InfPObs struct {
	// Peerings is the InfP's own link state, in declaration order.
	Peerings []isp.LinkReport
	// Egress maps CDN name to the current peering choice.
	Egress map[string]string
	// Reach maps CDN name to the peering IDs that can serve it, in
	// declaration (cost-preference) order.
	Reach map[string][]string
	// A2I is the EONA view (nil for baseline operation).
	A2I *A2IView
	// A2IConfidence grades how much the A2I view is still to be trusted
	// (see AppPObs.I2AConfidence). Only consulted by policies with a
	// ConfidenceFloor set.
	A2IConfidence float64
}

// InfPDecision is the InfP's egress choice per CDN.
type InfPDecision struct {
	Egress map[string]string
}

// InfPPolicy decides InfP knobs each TE epoch.
type InfPPolicy interface {
	Decide(InfPObs) InfPDecision
}

// BaselineInfP is utilization-reactive, cost-greedy TE: use the preferred
// (first-listed, typically cheapest/local) peering for each CDN; evacuate
// when its utilization passes HighWater; fall back as soon as it drops
// below LowWater. Because it cannot see the AppP's demand, it flips back
// the moment the AppP's own reaction drains the link — the Figure 5
// oscillator.
type BaselineInfP struct {
	HighWater, LowWater float64
}

// Decide implements InfPPolicy.
func (b *BaselineInfP) Decide(obs InfPObs) InfPDecision {
	util := reportMap(obs.Peerings)
	out := InfPDecision{Egress: map[string]string{}}
	for _, cdnName := range sortedKeys(obs.Reach) {
		options := obs.Reach[cdnName]
		if len(options) == 0 {
			continue
		}
		preferred := options[0]
		current, ok := obs.Egress[cdnName]
		if !ok {
			current = preferred
		}
		choice := current
		if util[current] >= b.HighWater {
			// Evacuate to the least-utilized alternative.
			choice = leastUtilized(options, util, current)
		} else if current != preferred && util[preferred] < b.LowWater {
			// Cost preference pulls traffic back as soon as the
			// preferred link looks idle.
			choice = preferred
		}
		out.Egress[cdnName] = choice
	}
	return out
}

// EONAInfP sizes egress choices against the A2I per-CDN traffic estimate:
// choose the most-preferred peering whose *capacity* fits the estimated
// volume with margin. Because the decision depends on demand rather than
// on the link's instantaneous utilization, it does not flip when the AppP's
// traffic momentarily leaves the link.
type EONAInfP struct {
	// Margin is the required capacity headroom over the estimate
	// (0.1 = 10%).
	Margin float64
	// HighWater triggers utilization-based fallback when no estimate is
	// available for a CDN.
	HighWater float64
	// ConfidenceFloor, when positive, is the minimum obs.A2IConfidence at
	// which the A2I estimates are still trusted. Below it the estimates
	// are treated as absent and every CDN takes the utilization-reactive
	// fallback path — the baseline rule. Zero keeps the legacy
	// always-trust behaviour.
	ConfidenceFloor float64
}

// Decide implements InfPPolicy.
func (e *EONAInfP) Decide(obs InfPObs) InfPDecision {
	util := reportMap(obs.Peerings)
	capacity := map[string]float64{}
	for _, r := range obs.Peerings {
		capacity[r.PeeringID] = r.CapacityBps
	}
	demand := map[string]float64{}
	if obs.A2I != nil && !(e.ConfidenceFloor > 0 && obs.A2IConfidence < e.ConfidenceFloor) {
		for _, t := range obs.A2I.Traffic {
			demand[t.CDN] += t.VolumeBps
		}
	}
	out := InfPDecision{Egress: map[string]string{}}
	for _, cdnName := range sortedKeys(obs.Reach) {
		options := obs.Reach[cdnName]
		if len(options) == 0 {
			continue
		}
		current, ok := obs.Egress[cdnName]
		if !ok {
			current = options[0]
		}
		vol, hasVol := demand[cdnName]
		if !hasVol {
			// No estimate: behave like the utilization baseline.
			if util[current] >= e.HighWater {
				out.Egress[cdnName] = leastUtilized(options, util, current)
			} else {
				out.Egress[cdnName] = current
			}
			continue
		}
		need := vol * (1 + e.Margin)
		// Keep the current choice if it fits the demand.
		if capacity[current] >= need {
			out.Egress[cdnName] = current
			continue
		}
		// Otherwise the most-preferred option that fits; if none
		// fits, the largest.
		choice := ""
		for _, opt := range options {
			if capacity[opt] >= need {
				choice = opt
				break
			}
		}
		if choice == "" {
			choice = options[0]
			for _, opt := range options {
				if capacity[opt] > capacity[choice] {
					choice = opt
				}
			}
		}
		out.Egress[cdnName] = choice
	}
	return out
}

func reportMap(reports []isp.LinkReport) map[string]float64 {
	m := make(map[string]float64, len(reports))
	for _, r := range reports {
		m[r.PeeringID] = r.Utilization
	}
	return m
}

func leastUtilized(options []string, util map[string]float64, exclude string) string {
	best := ""
	for _, opt := range options {
		if opt == exclude {
			continue
		}
		if best == "" || util[opt] < util[best] {
			best = opt
		}
	}
	if best == "" {
		return exclude // nowhere else to go
	}
	return best
}

func cdnNames(stats []CDNStat) []string {
	out := make([]string, len(stats))
	for i, c := range stats {
		out[i] = c.Name
	}
	return out
}

func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
