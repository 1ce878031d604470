package netsim

import "math"

// Index arena: the struct-of-arrays (SoA) core of the allocator.
//
// Every live flow owns a dense arena index, assigned at StartFlow and
// recycled through a freelist at StopFlow, so the allocator's inner loops
// can run over parallel []float64 demand/weight/rate slices and []int32
// path adjacency instead of chasing *Flow pointers and map entries. The
// arena mirrors exactly the inputs the progressive filler reads — demand
// (post-clamp), effective weight (weight(): ≤0 means 1) and the path's link
// IDs — and is kept in lockstep by the mutation surface. Beside them it
// caches each flow's state-digest fingerprint (digest.go), maintained at the
// same three points: attach, detach and re-path.
//
// "Seen" bookkeeping (component expansion, link dedup, split checks) uses
// epoch-stamped marks instead of clear-after-use bitmaps: a flow or link is
// seen iff its stamp equals the current epoch, so starting a fresh mark set
// is one counter increment and nothing is ever cleared. See DESIGN.md
// "Index arena & SoA fill".

// noIdx marks a detached flow's arena index.
const noIdx = -1

// arenaAttach assigns f a dense arena index (recycling the freelist) and
// mirrors its allocator inputs into the parallel arrays. Call after f's
// fields are final for this attach.
func (n *Network) arenaAttach(f *Flow) {
	var i int32
	if k := len(n.arFree); k > 0 {
		i = n.arFree[k-1]
		n.arFree = n.arFree[:k-1]
	} else {
		i = int32(len(n.arFlow))
		n.arFlow = append(n.arFlow, nil)
		n.arID = append(n.arID, 0)
		n.arDemand = append(n.arDemand, 0)
		n.arWeight = append(n.arWeight, 0)
		n.arRate = append(n.arRate, 0)
		n.arPath = append(n.arPath, nil)
		n.arStatic = append(n.arStatic, 0)
		n.arFP = append(n.arFP, 0)
		n.flowMark = append(n.flowMark, 0)
		n.flowDirty = append(n.flowDirty, false)
	}
	f.idx = i
	n.arFlow[i] = f
	n.arID[i] = f.ID
	n.arDemand[i] = f.Demand
	n.arWeight[i] = f.weight()
	n.arRate[i] = 0
	n.arenaSetPath(f)
	n.flowMark[i] = 0
}

// arenaDetach releases f's arena index back to the freelist and withdraws
// its fingerprint from the digest sum.
func (n *Network) arenaDetach(f *Flow) {
	i := f.idx
	n.arFlow[i] = nil
	n.arRate[i] = 0
	n.flowSum -= n.arFP[i]
	n.arFP[i] = 0
	n.arFree = append(n.arFree, i)
	f.idx = noIdx
}

// arenaSetPath refreshes the []int32 path adjacency for f's slot, reusing
// the slot's previous backing array, and re-fingerprints the flow over its
// new path.
func (n *Network) arenaSetPath(f *Flow) {
	p := n.arPath[f.idx][:0]
	for _, l := range f.Path {
		p = append(p, int32(l.ID))
	}
	n.arPath[f.idx] = p
	n.arStatic[f.idx] = flowStatic(f)
	n.refingerprint(f)
}

// --- epoch-stamped seen marks ----------------------------------------------

// bumpEpoch starts a fresh "seen" mark set for flows and links: all existing
// stamps become stale in O(1).
func (n *Network) bumpEpoch() { n.epoch++ }

func (n *Network) flowSeen(f *Flow) bool { return n.flowMark[f.idx] == n.epoch }
func (n *Network) markFlow(f *Flow)      { n.flowMark[f.idx] = n.epoch }
func (n *Network) linkSeen(id LinkID) bool {
	return n.linkMark[id] == n.epoch
}
func (n *Network) markLink(id LinkID) { n.linkMark[id] = n.epoch }

// --- SoA progressive fill ----------------------------------------------------

// growFillScratch sizes the per-component rate/frozen scratch.
func (n *Network) growFillScratch(k int) {
	if cap(n.scratchRate) < k {
		n.scratchRate = make([]float64, k)
		n.scratchFrozen = make([]bool, k)
	}
}

// fillSoA runs weighted max-min progressive filling over one link-connected
// component, reading demands and weights from the arena's parallel arrays
// and the []int32 adjacency. idxs must be sorted by flow ID and links must be
// exactly the links those flows cross; because components are link-disjoint,
// the result is independent of every other component. The fill level λ is in
// rate-per-weight units: an unfrozen flow's tentative rate is λ×weight, so
// at a shared bottleneck flows split capacity in proportion to their
// weights. Runs in O(iterations × links × flows) over the component, where
// iterations ≤ flows (see the BenchmarkChurn* family).
//
// fillSoA is a deterministic function of (flow IDs, paths, demands, weights,
// link capacities, MaxRate): recomputing an unchanged component reproduces
// its rates byte-identically. The test-only oracle (oracle_test.go) performs
// the identical float operations in the identical ascending-ID order over
// *Flow fields, which is what lets every differential suite compare with !=.
func (n *Network) fillSoA(idxs []int32, links []LinkID) {
	n.stats.FlowsRecomputed += uint64(len(idxs))
	n.stats.ComponentsRecomputed++
	avail, weight := n.scratchAvail, n.scratchWeight
	for _, id := range links {
		avail[id] = n.topo.links[id].Capacity
		weight[id] = 0
		n.linkRate[id] = 0
		n.markRateDirty(id)
	}
	for _, i := range idxs {
		w := n.arWeight[i]
		for _, l := range n.arPath[i] {
			weight[l] += w
		}
	}

	n.growFillScratch(len(idxs))
	rate := n.scratchRate[:len(idxs)]
	frozen := n.scratchFrozen[:len(idxs)]
	for i := range frozen {
		frozen[i] = false
	}
	unfrozen := len(idxs)
	for unfrozen > 0 {
		// Fill level λ (rate per unit weight): the smallest over links
		// that carry unfrozen flows. Flows not constrained by any link are
		// bounded by MaxRate via the demand step below.
		level := math.Inf(1)
		for _, id := range links {
			if weight[id] > 0 {
				if s := avail[id] / weight[id]; s < level {
					level = s
				}
			}
		}
		// Flows whose capped demand is reached at or below the level
		// freeze at that demand.
		frozeAny := false
		for k, i := range idxs {
			if frozen[k] {
				continue
			}
			w := n.arWeight[i]
			d := math.Min(n.arDemand[i], n.maxRate)
			if d/w <= level {
				rate[k] = d
				frozen[k] = true
				unfrozen--
				frozeAny = true
				for _, l := range n.arPath[i] {
					avail[l] -= d
					if avail[l] < 0 {
						avail[l] = 0
					}
					weight[l] -= w
					if weight[l] < 0 {
						weight[l] = 0
					}
				}
			}
		}
		if frozeAny {
			continue
		}
		// Otherwise freeze every unfrozen flow that crosses a bottleneck
		// link (a link whose fill level equals λ) at λ×weight.
		const eps = 1e-9
		for k, i := range idxs {
			if frozen[k] {
				continue
			}
			w := n.arWeight[i]
			bottlenecked := false
			for _, l := range n.arPath[i] {
				if weight[l] > 0 && avail[l]/weight[l] <= level*(1+eps)+eps {
					bottlenecked = true
					break
				}
			}
			if bottlenecked {
				r := level * w
				rate[k] = r
				frozen[k] = true
				unfrozen--
				frozeAny = true
				for _, l := range n.arPath[i] {
					avail[l] -= r
					if avail[l] < 0 {
						avail[l] = 0
					}
					weight[l] -= w
					if weight[l] < 0 {
						weight[l] = 0
					}
				}
			}
		}
		if !frozeAny {
			// Cannot happen: some link always attains the level.
			panic("netsim: progressive filling made no progress")
		}
	}

	for k, i := range idxs {
		r := rate[k]
		n.arRate[i] = r
		n.arFlow[i].Rate = r
		for _, l := range n.arPath[i] {
			n.linkRate[l] += r
		}
	}
}
