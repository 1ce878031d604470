package netsim

import (
	"cmp"
	"slices"
)

// Component registry: persistent flow→component membership.
//
// The incremental allocator needs, at every commit, the set of connected
// components touched by the dirty flows and links. Re-discovering that set
// by BFS over linkFlows (expand) costs O(component) map traffic per commit
// even when the membership did not change. The registry keeps membership
// across commits, maintained on the only three mutations that can change it
// — StartFlow, StopFlow and SetPath — so dirty-set discovery becomes a map
// lookup per dirty flow plus one per dirty link, and component sizes and the
// per-component snapshot chunks (snapshot.go) come for free.
//
// Invariants (see DESIGN.md §5 for the full argument):
//
//   - Every live flow maps to exactly one component, and all flows sharing a
//     link are in the same component. A component is therefore always a
//     superset-or-equal of the true connected component of each member.
//   - A component is exact unless marked stale. Additions never make a
//     component stale (union of exact sets along shared links is exact);
//     only a removal can, by deleting the flow that bridged two halves.
//   - Stale components are re-split into exact ones lazily, at the first
//     commit that touches them and before any rate is computed. fillSoA
//     therefore always runs on exact components, which keeps an incremental
//     commit bit-identical to a from-scratch pass (filling a union of
//     disjoint components would reorder float operations and drift).
//
// The structure is a weighted quick-union on direct component pointers
// rather than a classic parent-pointer DSU: merging moves the smaller
// member list into the larger (O(n log n) pointer moves amortized over a
// component's lifetime), and deleting a flow removes it from its list — no
// tombstones to leak over millions of session arrivals and departures.
// Member lists hold arena indices in ascending flow-ID order — exactly the
// list fillSoA takes and the order the snapshot chunks are built in, so
// neither sorts or copies: a started flow carries the largest ID ever issued
// and appends, a removal is a binary search plus a shift, and a union merges
// two sorted runs. Retired components (emptied, or the loser of a union) park
// in a pool with their member lists emptied, so steady-state churn recycles
// husks instead of allocating.
type component struct {
	flows []int32 // members' arena indices, in ascending flow ID
	// stale marks that a removal may have disconnected this component: it
	// is still a superset of each member's true component, but must be
	// re-split (resplit) before its sizes or memberships are trusted.
	stale bool
	// mark is scratch used by reallocateRegistry to dedupe the touched
	// set without allocating; always false between commits.
	mark bool
	// slot is the component's snapshot chunk slot (snapshot.go): published
	// snapshots cache one flow chunk per component and share the chunks
	// of components untouched since the previous snapshot.
	slot int32
}

// regAdd registers a newly indexed flow: it starts as a singleton component
// and unions with the component of every link it shares. Because all flows
// on one link already share a component, inspecting a single co-resident
// per link suffices.
func (n *Network) regAdd(f *Flow) {
	c := n.newComp()
	c.flows = append(c.flows, f.idx)
	n.comp[f.ID] = c
	for _, l := range f.Path {
		for gid := range n.linkFlows[l.ID] {
			if gid == f.ID {
				continue
			}
			c = n.regUnion(c, n.comp[gid])
			break
		}
	}
	n.markChunkStatic(c)
}

// regUnion merges two components, moving the smaller member list into the
// larger, and returns the survivor. Staleness is contagious: a superset of
// a stale superset is still only a superset. The loser's husk is pooled.
func (n *Network) regUnion(a, b *component) *component {
	if a == b {
		return a
	}
	if len(a.flows) < len(b.flows) {
		a, b = b, a
	}
	for _, i := range b.flows {
		n.comp[n.arID[i]] = a
	}
	a.flows = n.mergeByID(a.flows, b.flows)
	if b.stale {
		a.stale = true
	}
	n.markChunkStatic(a)
	n.retireComp(b)
	return a
}

// regRemove forgets a flow that has just been unindexed (StopFlow, or the
// removal half of SetPath). Must run after unindexFlow and before f.Path is
// replaced. The surviving component is marked stale only when the removal
// could actually have disconnected it (removalMaySplit); empty components
// are retired entirely so long-running sims don't accumulate husks.
func (n *Network) regRemove(f *Flow) {
	c := n.comp[f.ID]
	if c == nil {
		return
	}
	delete(n.comp, f.ID)
	i := n.memberPos(c.flows, f.ID)
	c.flows = slices.Delete(c.flows, i, i+1)
	if len(c.flows) == 0 {
		n.retireComp(c)
		return
	}
	n.markChunkStatic(c)
	if c.stale {
		return
	}
	if n.removalMaySplit(f) {
		c.stale = true
	}
}

// removalMaySplit reports whether removing f can have disconnected its
// component. Two cheap sufficient conditions prove it cannot: f's path has
// at most one link still carrying flows (f bridged nothing), or the
// smallest-ID survivor on the first still-populated link itself crosses
// every still-populated link of f's path (that survivor bridges everything
// f did). The smallest-ID scan — rather than "any map key" — keeps the
// stale/exact decision, and hence RegistryRebuilds, deterministic across
// runs. When neither condition holds the caller conservatively marks the
// component stale; a false positive only costs one lazy re-split.
func (n *Network) removalMaySplit(f *Flow) bool {
	n.bumpEpoch()
	populated := n.scratchLinks[:0]
	for _, l := range f.Path {
		if len(n.linkFlows[l.ID]) > 0 && !n.linkSeen(l.ID) {
			n.markLink(l.ID)
			populated = append(populated, l.ID)
		}
	}
	n.scratchLinks = populated
	if len(populated) <= 1 {
		return false
	}
	var cand *Flow
	for _, g := range n.linkFlows[populated[0]] {
		if cand == nil || g.ID < cand.ID {
			cand = g
		}
	}
	n.bumpEpoch()
	for _, l := range cand.Path {
		n.markLink(l.ID)
	}
	for _, id := range populated {
		if !n.linkSeen(id) {
			return true
		}
	}
	return false
}

// resplit rebuilds the exact components of a stale one by BFS over its
// members only (a true component is a subset of its stale superset, so
// expand never escapes it). Members are walked in ascending ID, so the
// pieces take their chunk slots in the order of their smallest member — the
// same on every run. Counted in RegistryRebuilds; registry tests assert this
// stays rare under realistic churn.
func (n *Network) resplit(c *component) {
	n.stats.RegistryRebuilds++
	n.bumpEpoch()
	for _, i := range c.flows {
		f := n.arFlow[i]
		if n.flowSeen(f) {
			continue
		}
		flows, links := n.expand(f, n.scratchFlows[:0], n.scratchLinks[:0])
		n.scratchFlows, n.scratchLinks = flows, links
		nc := n.newComp()
		for _, g := range flows { // expand sorts by ID
			nc.flows = append(nc.flows, g.idx)
			n.comp[g.ID] = nc
		}
		n.markChunkStatic(nc)
	}
	// Retire the stale superset only after the member walk above: it still
	// owns c.flows while we iterate.
	n.retireComp(c)
}

// memberPos returns where flow id sits, or would be inserted, in an ID-ordered
// member list.
func (n *Network) memberPos(members []int32, id FlowID) int {
	ids := n.arID
	pos, _ := slices.BinarySearchFunc(members, id, func(i int32, id FlowID) int {
		return cmp.Compare(ids[i], id)
	})
	return pos
}

// mergeByID merges the ID-ordered src into the disjoint ID-ordered dst and
// returns the extended dst. dst grows once and is merged in place from the
// back: each src member, largest first, is placed by binary search and the
// survivors above it move up in one block — no moves at all when every src
// ID exceeds every dst ID, the common case of a fresh flow joining older ones.
func (n *Network) mergeByID(dst, src []int32) []int32 {
	i := len(dst) // dst[:i] is still unmerged
	dst = append(dst, src...)
	for j := len(src) - 1; j >= 0; j-- {
		pos := n.memberPos(dst[:i], n.arID[src[j]])
		copy(dst[pos+j+1:], dst[pos:i])
		dst[pos+j] = src[j]
		i = pos
	}
	return dst
}

// compLinks collects a (fresh) component's link set, the other argument of
// fillSoA beside the member list, into the commit-scoped scratch.
func (n *Network) compLinks(c *component) []LinkID {
	n.bumpEpoch()
	links := n.scratchLinks[:0]
	for _, i := range c.flows {
		for _, l := range n.arPath[i] {
			id := LinkID(l)
			if !n.linkSeen(id) {
				n.markLink(id)
				links = append(links, id)
			}
		}
	}
	n.scratchLinks = links
	return links
}

// reallocateRegistry is the commit path: dirty flows and links map straight
// to their persistent components — re-splitting stale ones first — so
// discovery costs O(dirty set + touched members) with no BFS over linkFlows
// and no per-commit visited map, and only the touched components are filled.
// It is the only commit path: SetMaxRate, which every component depends on,
// dirties every live flow and comes through here too. There is no "too much
// is dirty, refill everything" fallback: with sizes known up front, filling
// the touched components is never more work than a from-scratch pass
// (DESIGN.md "One allocator path" has the measurements).
func (n *Network) reallocateRegistry() {
	// Pass 1: re-split every stale component the dirty set touches.
	// Splitting before collecting means a dirty flow in a shrunken
	// component no longer drags the detached remainder into the
	// recomputation. The dirty lists are in op order, so which piece takes
	// which chunk slot depends on the ops alone.
	for _, i := range n.dirtyFlows {
		if f := n.arFlow[i]; f != nil && n.comp[f.ID].stale {
			n.resplit(n.comp[f.ID])
		}
	}
	for _, id := range n.dirtyLinks {
		for fid := range n.linkFlows[id] {
			if c := n.comp[fid]; c != nil && c.stale {
				n.resplit(c)
			}
			break // all flows on a link share one component
		}
	}

	// Pass 2: collect the touched components.
	comps := n.scratchComps[:0]
	for _, i := range n.dirtyFlows {
		if f := n.arFlow[i]; f != nil {
			if c := n.comp[f.ID]; !c.mark {
				c.mark = true
				comps = append(comps, c)
			}
		}
	}
	for _, id := range n.dirtyLinks {
		for fid := range n.linkFlows[id] {
			if c := n.comp[fid]; c != nil && !c.mark {
				c.mark = true
				comps = append(comps, c)
			}
			break
		}
	}
	n.scratchComps = comps

	for _, c := range comps {
		c.mark = false
		n.markChunkDirty(c)
		n.fillSoA(c.flows, n.compLinks(c))
	}
	// A dirtied link that no longer carries any flow belongs to no
	// component; zero its stale allocation.
	for _, id := range n.dirtyLinks {
		if len(n.linkFlows[id]) == 0 {
			n.linkRate[id] = 0
			n.markRateDirty(id)
		}
	}
}

// Stats is a point-in-time snapshot of the allocator's work counters,
// suitable for asserting incremental behaviour in tests and printing under
// `eona-bench -v`. Deltas between snapshots around an operation give the
// operation's cost.
type Stats struct {
	// Reallocations counts commit events (one per unbatched mutation or
	// batch close). IncrementalReallocations always equals it — every
	// commit fills only the touched components — and is kept for readers
	// that report the ratio.
	Reallocations            uint64
	IncrementalReallocations uint64
	// FlowsRecomputed sums component sizes passed through the progressive
	// filler; ComponentsRecomputed counts the fills themselves.
	FlowsRecomputed      uint64
	ComponentsRecomputed uint64
	// RegistryRebuilds counts lazy re-splits of stale components.
	RegistryRebuilds uint64
	// CoalescedReactions counts control-loop reactions folded into shared
	// end-of-tick batches (incremented by control.Coalescer).
	CoalescedReactions uint64
}

// Stats returns a snapshot of the allocator's work counters.
func (n *Network) Stats() Stats { return n.stats }
