package netsim

import (
	"math"
	"slices"
	"testing"
)

// The max-min reference every differential suite compares the allocator
// against. It shares nothing with the production path but the inputs: it
// reads the live flows' paths, demands and weights, the link capacities and
// MaxRate, rediscovers the link-connected components with its own BFS (no
// registry, no linkFlows index, no arena), and fills each with the
// pointer-walking progressive filler the allocator started from. It writes
// nothing back, so the Network under test cannot be healed by being checked.
//
// Components are filled one at a time, members in ascending flow ID, with
// the float operations in the order fillSoA performs them — which is why the
// suites can compare with != rather than an epsilon. Link order inside a
// component is immaterial: the fill level is a min over links and every
// per-link accumulator is updated in flow order.

// oracleRates returns the reference rate of every live flow and the
// reference total rate of every link.
func oracleRates(n *Network) (map[FlowID]float64, []float64) {
	nl := n.topo.NumLinks()
	var ordered []*Flow
	for _, f := range n.flows {
		ordered = append(ordered, f)
	}
	slices.SortFunc(ordered, flowIDCmp)
	onLink := make([][]*Flow, nl)
	for _, f := range ordered {
		for _, l := range f.Path {
			onLink[l.ID] = append(onLink[l.ID], f)
		}
	}

	rates := make(map[FlowID]float64, len(ordered))
	linkRate := make([]float64, nl)
	avail := make([]float64, nl)
	weight := make([]float64, nl)
	seenFlow := make(map[FlowID]bool, len(ordered))
	seenLink := make([]bool, nl)
	for _, seed := range ordered {
		if seenFlow[seed.ID] {
			continue
		}
		// BFS: flow → its links → every flow on those links.
		var flows []*Flow
		var links []LinkID
		seenFlow[seed.ID] = true
		queue := []*Flow{seed}
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			flows = append(flows, f)
			for _, l := range f.Path {
				if seenLink[l.ID] {
					continue
				}
				seenLink[l.ID] = true
				links = append(links, l.ID)
				for _, g := range onLink[l.ID] {
					if !seenFlow[g.ID] {
						seenFlow[g.ID] = true
						queue = append(queue, g)
					}
				}
			}
		}
		slices.SortFunc(flows, flowIDCmp)
		for i, r := range oracleFill(flows, links, n.topo, n.maxRate, avail, weight) {
			rates[flows[i].ID] = r
			for _, l := range flows[i].Path {
				linkRate[l.ID] += r
			}
		}
	}
	return rates, linkRate
}

// oracleFill is weighted max-min progressive filling over one component,
// walking *Flow pointers. avail and weight are per-link scratch indexed by
// LinkID. Returns the rates in flows order.
func oracleFill(flows []*Flow, links []LinkID, topo *Topology, maxRate float64, avail, weight []float64) []float64 {
	for _, id := range links {
		avail[id] = topo.links[id].Capacity
		weight[id] = 0
	}
	for _, f := range flows {
		for _, l := range f.Path {
			weight[l.ID] += f.weight()
		}
	}
	rate := make([]float64, len(flows))
	frozen := make([]bool, len(flows))
	freeze := func(i int, r float64) {
		f, w := flows[i], flows[i].weight()
		rate[i] = r
		frozen[i] = true
		for _, l := range f.Path {
			avail[l.ID] -= r
			if avail[l.ID] < 0 {
				avail[l.ID] = 0
			}
			weight[l.ID] -= w
			if weight[l.ID] < 0 {
				weight[l.ID] = 0
			}
		}
	}
	for unfrozen := len(flows); unfrozen > 0; {
		// Fill level λ (rate per unit weight): the smallest over links that
		// still carry unfrozen flows.
		level := math.Inf(1)
		for _, id := range links {
			if weight[id] > 0 {
				if s := avail[id] / weight[id]; s < level {
					level = s
				}
			}
		}
		// Flows whose capped demand is reached at or below the level freeze
		// at that demand.
		before := unfrozen
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if d := math.Min(f.Demand, maxRate); d/f.weight() <= level {
				freeze(i, d)
				unfrozen--
			}
		}
		if unfrozen < before {
			continue
		}
		// Otherwise every unfrozen flow crossing a bottleneck link (one
		// whose fill level equals λ) freezes at λ×weight.
		const eps = 1e-9
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			for _, l := range f.Path {
				if weight[l.ID] > 0 && avail[l.ID]/weight[l.ID] <= level*(1+eps)+eps {
					freeze(i, level*f.weight())
					unfrozen--
					break
				}
			}
		}
		if unfrozen == before {
			panic("netsim: oracle progressive filling made no progress")
		}
	}
	return rate
}

// requireOracle fails the test unless every live flow's rate and every link
// rate of n equal the oracle's, bit for bit, the state digest equals its
// own, and the component registry is well-formed.
func requireOracle(t *testing.T, n *Network, phase string) {
	t.Helper()
	requireDigest(t, n, phase)
	requireRegistry(t, n, phase)
	rates, linkRate := oracleRates(n)
	for id, f := range n.flows {
		if f.Rate != rates[id] {
			t.Fatalf("%s: flow %d: rate %v != oracle %v", phase, id, f.Rate, rates[id])
		}
		if n.arRate[f.idx] != rates[id] {
			t.Fatalf("%s: flow %d: arena rate %v != oracle %v", phase, id, n.arRate[f.idx], rates[id])
		}
	}
	for id := range linkRate {
		if got := n.LinkRate(LinkID(id)); got != linkRate[id] {
			t.Fatalf("%s: link %d: rate %v != oracle %v", phase, id, got, linkRate[id])
		}
	}
}

// --- Registry invariants ------------------------------------------------------

// requireRegistry fails the test unless the component registry is
// well-formed: every component's members are arena indices of live flows,
// strictly ascending by flow ID (the order the fill and the snapshot chunks
// read without sorting), each member maps back to its component and nobody
// else does, the member counts add up to the live flows, all flows on one
// link share a component, and every pooled husk is empty. Like requireDigest it is valid inside
// an open Batch: membership updates eagerly, and a stale superset satisfies
// every clause.
func requireRegistry(t *testing.T, n *Network, phase string) {
	t.Helper()
	members := 0
	for s, c := range n.slotComp {
		if c == nil {
			continue
		}
		if int(c.slot) != s {
			t.Fatalf("%s: component in slot %d believes it owns slot %d", phase, s, c.slot)
		}
		if len(c.flows) == 0 {
			t.Fatalf("%s: live component in slot %d has no members", phase, s)
		}
		members += len(c.flows)
		last := FlowID(-1)
		for k, i := range c.flows {
			f := n.arFlow[i]
			if f == nil || f.idx != i || n.flows[f.ID] != f {
				t.Fatalf("%s: slot %d member %d is arena index %d, which holds no live flow", phase, s, k, i)
			}
			if f.ID <= last {
				t.Fatalf("%s: slot %d members not strictly ascending at %d: %d then %d", phase, s, k, last, f.ID)
			}
			last = f.ID
			if n.comp[f.ID] != c {
				t.Fatalf("%s: flow %d is a member of slot %d but maps elsewhere", phase, f.ID, s)
			}
		}
	}
	if members != len(n.flows) || len(n.comp) != len(n.flows) {
		t.Fatalf("%s: %d component members, %d registry entries, %d live flows", phase, members, len(n.comp), len(n.flows))
	}
	for id, on := range n.linkFlows {
		var c *component
		for fid := range on {
			if c == nil {
				c = n.comp[fid]
			} else if n.comp[fid] != c {
				t.Fatalf("%s: flows on link %d are split across components", phase, id)
			}
		}
	}
	for _, c := range n.compPool {
		if len(c.flows) != 0 {
			t.Fatalf("%s: pooled husk still lists %d members", phase, len(c.flows))
		}
	}
}

// --- State digest oracle ------------------------------------------------------

// stateDigestOracle is the state-digest reference: the full recompute the
// production StateDigest replaced. It walks n.flows and the topology and
// fingerprints every flow from its fields with the same per-element hash,
// trusting nothing the mutators maintain — not flowSum, not the arena's
// cached fingerprints — so a mutator that forgets its subtract-old/add-new
// parts ways with it on the next check.
func stateDigestOracle(n *Network) uint64 {
	var sum uint64
	for _, f := range n.flows {
		sum += flowFingerprint(flowStatic(f), f.Demand, f.Weight)
	}
	h := mixWord(digestSeed, uint64(n.nextID))
	h = mixWord(h, math.Float64bits(n.maxRate))
	h = mixWord(h, uint64(len(n.flows)))
	h = mixWord(h, sum)
	for _, l := range n.topo.links {
		h = mixWord(h, math.Float64bits(l.Capacity))
	}
	return fmix64(h)
}

// requireDigest fails the test unless StateDigest equals its oracle. Unlike
// requireOracle it is valid inside an open Batch: inputs update eagerly.
func requireDigest(t *testing.T, n *Network, phase string) {
	t.Helper()
	if got, want := n.StateDigest(), stateDigestOracle(n); got != want {
		t.Fatalf("%s: StateDigest %016x != oracle %016x", phase, got, want)
	}
}

// oracleSink is an OpLog that also checks the digest a SharedNetwork hands
// the journal against the oracle after every committed op — including ops
// applied mid-window in deterministic mode. It runs on the owner goroutine,
// where reading the network is safe.
type oracleSink struct {
	OpLog
	t   *testing.T
	net *Network
}

func (s *oracleSink) AppendOp(op Op, digest uint64) error {
	if want := stateDigestOracle(s.net); digest != want {
		s.t.Errorf("journaled digest after %v op on flow %d: %016x != oracle %016x", op.Kind, op.Flow, digest, want)
	}
	return s.OpLog.AppendOp(op, digest)
}
