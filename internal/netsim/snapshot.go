package netsim

import (
	"cmp"
	"slices"
	"time"
)

// Shared read-model formulas. Network and Snapshot answer every derived
// read (utilization, congestion class, queue delay, loss) through these
// helpers so the two surfaces cannot drift.

func utilizationOf(rate, capacity float64) float64 {
	if capacity <= 0 {
		return 0
	}
	u := rate / capacity
	if u > 1 {
		u = 1 // numerical safety; allocation never exceeds capacity
	}
	return u
}

// queueDelayOf estimates the queueing delay added by a link at utilization
// u, using a capped M/M/1-style growth curve: delay rises as util/(1-util),
// capped at 50× the propagation delay (a bufferbloat bound).
func queueDelayOf(u float64, base time.Duration) time.Duration {
	if u >= 0.999 {
		u = 0.999
	}
	if base == 0 {
		base = time.Millisecond
	}
	q := time.Duration(float64(base) * 0.5 * u / (1 - u))
	if max := 50 * base; q > max {
		q = max
	}
	return q
}

// lossRateOf estimates the packet loss probability at utilization u: zero
// below 90%, rising quadratically to 5% at full utilization.
func lossRateOf(u float64) float64 {
	if u <= 0.9 {
		return 0
	}
	x := (u - 0.9) / 0.1
	return 0.05 * x * x
}

// congestionOf classifies utilization for I2A export.
func congestionOf(u float64) CongestionLevel {
	switch {
	case u >= 0.98:
		return CongestionSevere
	case u >= 0.90:
		return CongestionHigh
	case u >= 0.70:
		return CongestionModerate
	default:
		return CongestionNone
	}
}

// FlowView is a flow's state frozen into a Snapshot.
type FlowView struct {
	ID     FlowID
	Rate   float64
	Demand float64
	Weight float64
	Tag    string
}

// flowChunk is one registry component's flows frozen at snapshot time,
// sorted by ascending flow ID. Chunks are immutable once built, so
// consecutive snapshots share the chunks of components untouched between
// them. The static half lives in flows: each flow's handle, through which
// ID and Tag are read (both are fixed at attach), and its weight, copied
// because SetWeight changes it. Rate and Demand live in dyn, so a pure
// re-fill — by far the hottest publish — shares the flows slice and rebuilds
// only the two floats per flow.
type flowChunk struct {
	flows []chunkFlow // static half, in flow-ID order
	dyn   []float64   // [rate, demand] per flow, same order as flows
}

// chunkFlow is one flow's static half in a chunk.
type chunkFlow struct {
	f      *Flow
	weight float64
}

func (ch *flowChunk) view(pos int) FlowView {
	e := ch.flows[pos]
	return FlowView{ID: e.f.ID, Rate: ch.dyn[2*pos], Demand: ch.dyn[2*pos+1], Weight: e.weight, Tag: e.f.Tag}
}

// flowTable is a snapshot's flow set: per-component chunks indexed by the
// component's slot, and nothing per flow — a publish costs what the chunks it
// rebuilds cost, and the one by-ID read (lookup) searches the chunks.
type flowTable struct {
	count  int
	chunks []*flowChunk // by slot; nil for free slots
}

// lookup finds a flow by ID: chunks are ID-sorted, so each is ruled out by
// its ID range or binary-searched.
func (t *flowTable) lookup(id FlowID) (FlowView, bool) {
	for _, ch := range t.chunks {
		if ch == nil || id < ch.flows[0].f.ID || id > ch.flows[len(ch.flows)-1].f.ID {
			continue
		}
		pos, ok := slices.BinarySearchFunc(ch.flows, id, func(e chunkFlow, id FlowID) int {
			return cmp.Compare(e.f.ID, id)
		})
		if ok {
			return ch.view(pos), true
		}
	}
	return FlowView{}, false
}

// ratePatch is one changed link rate relative to a snapshot's shared base
// array: consecutive snapshots under steady churn share the base and carry
// only the dirtied component's links as a patch, compacted back into a
// fresh base once the patch would exceed maxRatePatch.
type ratePatch struct {
	id  LinkID
	val float64
}

// maxRatePatch bounds the patch overlay (and so the per-read scan).
const maxRatePatch = 16

// --- component slot / chunk-dirty bookkeeping (Network side) ---------------

// newComp takes a component husk from the pool (or allocates one) and
// assigns it a snapshot chunk slot.
func (n *Network) newComp() *component {
	var c *component
	if k := len(n.compPool); k > 0 {
		c = n.compPool[k-1]
		n.compPool = n.compPool[:k-1]
	} else {
		c = &component{}
	}
	c.stale, c.mark = false, false
	n.assignSlot(c)
	return c
}

// retireComp frees a component's slot and parks its cleared husk in the
// pool. The component must no longer be reachable from n.comp.
func (n *Network) retireComp(c *component) {
	n.freeSlot(c)
	c.flows = c.flows[:0]
	c.stale, c.mark = false, false
	n.compPool = append(n.compPool, c)
}

func (n *Network) assignSlot(c *component) {
	if k := len(n.slotFree); k > 0 {
		s := n.slotFree[k-1]
		n.slotFree = n.slotFree[:k-1]
		c.slot = s
		n.slotComp[s] = c
	} else {
		c.slot = int32(len(n.slotComp))
		n.slotComp = append(n.slotComp, c)
		n.chunkDirty = append(n.chunkDirty, false)
		n.chunkStatic = append(n.chunkStatic, false)
	}
	n.markChunkStatic(c)
}

func (n *Network) freeSlot(c *component) {
	s := c.slot
	n.slotComp[s] = nil
	if n.chunkDirty[s] {
		n.chunkDirty[s] = false
		n.dirtyChunks--
	}
	n.chunkStatic[s] = false
	n.slotFree = append(n.slotFree, s)
	c.slot = -1
	n.snapFreed = true // the slot's chunk disappears from the next table
}

// markChunkDirty flags a component's snapshot chunk for a dynamic rebuild
// (rates/demands) at the next delta publication.
func (n *Network) markChunkDirty(c *component) {
	s := c.slot
	if s < 0 {
		return
	}
	if !n.chunkDirty[s] {
		n.chunkDirty[s] = true
		n.dirtyChunks++
	}
}

// markChunkStatic flags a component's snapshot chunk for a full rebuild:
// its membership or a static flow field (weight) changed, so the previous
// chunk's static half cannot be shared.
func (n *Network) markChunkStatic(c *component) {
	n.markChunkDirty(c)
	if c.slot >= 0 {
		n.chunkStatic[c.slot] = true
	}
}

// markRateDirty records that a link's allocated rate may differ from the
// last published snapshot; the publish path turns the accumulated set into
// a patch overlay over the previous snapshot's rate array.
func (n *Network) markRateDirty(id LinkID) {
	if !n.rateDirty[id] {
		n.rateDirty[id] = true
		n.rateList = append(n.rateList, id)
	}
}

// buildChunk freezes one component into a chunk.
func (n *Network) buildChunk(c *component) *flowChunk {
	ch := &flowChunk{flows: make([]chunkFlow, len(c.flows)), dyn: n.chunkDyn(c)}
	for pos, i := range c.flows {
		f := n.arFlow[i]
		ch.flows[pos] = chunkFlow{f: f, weight: f.Weight}
	}
	return ch
}

// chunkDyn freezes a component's rates and demands in member (ID) order.
func (n *Network) chunkDyn(c *component) []float64 {
	dyn := make([]float64, 2*len(c.flows))
	for pos, i := range c.flows {
		dyn[2*pos] = n.arRate[i]
		dyn[2*pos+1] = n.arDemand[i]
	}
	return dyn
}

// buildFlowTable freezes every live flow, one chunk per registry component.
func (n *Network) buildFlowTable() flowTable {
	t := flowTable{count: len(n.flows), chunks: make([]*flowChunk, len(n.slotComp))}
	for s, c := range n.slotComp {
		if c != nil {
			t.chunks[s] = n.buildChunk(c)
		}
	}
	return t
}

// deltaFlowTable builds the next snapshot's flow table, sharing the previous
// table's chunks for components untouched since it was published, and the
// static halves of components that were only re-filled.
func (n *Network) deltaFlowTable(prev *flowTable) flowTable {
	if !n.snapFreed && n.dirtyChunks == 0 {
		return *prev
	}
	t := flowTable{count: len(n.flows), chunks: make([]*flowChunk, len(n.slotComp))}
	for s, c := range n.slotComp {
		if c == nil {
			continue
		}
		prevCh := (*flowChunk)(nil)
		if s < len(prev.chunks) {
			prevCh = prev.chunks[s]
		}
		switch {
		case !n.chunkDirty[s] && prevCh != nil:
			t.chunks[s] = prevCh
		case !n.chunkStatic[s] && prevCh != nil && len(prevCh.flows) == len(c.flows):
			// Only rates and demands moved: membership and static fields
			// are unchanged since prevCh was built (every membership or
			// weight mutation sets chunkStatic), so its static half is
			// shared — it and c.flows are both in flow-ID order.
			t.chunks[s] = &flowChunk{flows: prevCh.flows, dyn: n.chunkDyn(c)}
		default:
			t.chunks[s] = n.buildChunk(c)
		}
	}
	return t
}

// Snapshot is an immutable copy of a Network's read surface: per-link rates
// and capacities, per-flow allocations, and the allocator work counters.
// It is safe for unsynchronized use from any number of goroutines and
// answers every read without touching the live network — this is the value
// a SharedNetwork publishes through its atomic pointer at each commit, and
// the one canonical read model a multi-process cluster mode can serialize.
// A reader that needs several values takes one Snapshot and reads them all
// from it, so they describe the same commit.
type Snapshot struct {
	// Seq is the publication sequence number: 0 for a snapshot taken
	// directly off a Network, and a strictly increasing commit counter for
	// snapshots published by a SharedNetwork.
	Seq uint64

	// rateBase plus ratePatch is the per-link allocated rate: ratePatch
	// overrides rateBase for the few links changed since the snapshot the
	// base was copied for. Patches are bounded by maxRatePatch; beyond that
	// the publish path compacts into a fresh base.
	rateBase  []float64
	ratePatch []ratePatch
	capacity  []float64
	delay     []time.Duration
	flowsOn   []int32
	activeOn  []int32
	flows     flowTable
	stats     Stats
}

// rateOf resolves a link's allocated rate through the patch overlay.
func (s *Snapshot) rateOf(id LinkID) float64 {
	for _, p := range s.ratePatch {
		if p.id == id {
			return p.val
		}
	}
	return s.rateBase[id]
}

// Snapshot freezes the network's current read surface. O(links + flows).
// Serial snapshots never consume the delta flags — those belong to the
// SharedNetwork publish path (snapshotDelta).
func (n *Network) Snapshot() *Snapshot { return n.snapshotFull(0) }

func (n *Network) snapshotFull(seq uint64) *Snapshot {
	nl := n.topo.NumLinks()
	s := &Snapshot{
		Seq:      seq,
		rateBase: make([]float64, nl),
		capacity: make([]float64, nl),
		delay:    n.snapDelay, // immutable after construction; shared
		flowsOn:  make([]int32, nl),
		activeOn: make([]int32, nl),
		flows:    n.buildFlowTable(),
		stats:    n.Stats(),
	}
	copy(s.rateBase, n.linkRate)
	for id, l := range n.topo.links {
		s.capacity[id] = l.Capacity
		s.flowsOn[id] = int32(len(n.linkFlows[id]))
	}
	copy(s.activeOn, n.activeOn)
	return s
}

// snapshotDelta is the SharedNetwork publish path: a copy-on-write snapshot
// that shares every facet of prev the mutations since prev did not touch,
// then consumes the delta flags. Immutability is preserved by construction —
// shared arrays are only ever read, changed facets get fresh arrays (or, for
// link rates, a small patch overlay on the previous base).
func (n *Network) snapshotDelta(seq uint64, prev *Snapshot) *Snapshot {
	if prev == nil {
		s := n.snapshotFull(seq)
		n.clearSnapFlags()
		return s
	}
	s := &Snapshot{Seq: seq, delay: n.snapDelay, stats: n.Stats()}
	if len(n.rateList) == 0 {
		s.rateBase, s.ratePatch = prev.rateBase, prev.ratePatch
	} else {
		// Carry forward the previous overlay entries not re-dirtied, add the
		// freshly changed links; compact into a new base past the bound.
		keep := 0
		for _, p := range prev.ratePatch {
			if !n.rateDirty[p.id] {
				keep++
			}
		}
		if keep+len(n.rateList) > maxRatePatch {
			s.rateBase = append([]float64(nil), n.linkRate...)
		} else {
			patch := make([]ratePatch, 0, keep+len(n.rateList))
			for _, p := range prev.ratePatch {
				if !n.rateDirty[p.id] {
					patch = append(patch, p)
				}
			}
			for _, id := range n.rateList {
				patch = append(patch, ratePatch{id: id, val: n.linkRate[id]})
			}
			s.rateBase, s.ratePatch = prev.rateBase, patch
		}
	}
	if n.snapCap {
		s.capacity = make([]float64, len(n.topo.links))
		for id, l := range n.topo.links {
			s.capacity[id] = l.Capacity
		}
	} else {
		s.capacity = prev.capacity
	}
	if n.snapOn {
		s.flowsOn = make([]int32, n.topo.NumLinks())
		for id := range n.topo.links {
			s.flowsOn[id] = int32(len(n.linkFlows[id]))
		}
		s.activeOn = append([]int32(nil), n.activeOn...)
	} else {
		s.flowsOn = prev.flowsOn
		s.activeOn = prev.activeOn
	}
	s.flows = n.deltaFlowTable(&prev.flows)
	n.clearSnapFlags()
	return s
}

// clearSnapFlags resets the per-facet delta flags, chunk dirty marks and the
// rate-dirty set after a delta publication consumed them.
func (n *Network) clearSnapFlags() {
	n.snapCap, n.snapOn, n.snapFreed = false, false, false
	if n.dirtyChunks > 0 {
		for i, d := range n.chunkDirty {
			if d {
				n.chunkDirty[i] = false
				n.chunkStatic[i] = false
			}
		}
		n.dirtyChunks = 0
	}
	for _, id := range n.rateList {
		n.rateDirty[id] = false
	}
	n.rateList = n.rateList[:0]
}

func (s *Snapshot) inRange(id LinkID) bool {
	return int(id) >= 0 && int(id) < len(s.rateBase)
}

// LinkRate returns the total allocated rate on a link in bits/s.
func (s *Snapshot) LinkRate(id LinkID) float64 {
	if !s.inRange(id) {
		return 0
	}
	return s.rateOf(id)
}

// Utilization returns allocated/capacity for a link, in [0,1].
func (s *Snapshot) Utilization(id LinkID) float64 {
	if !s.inRange(id) {
		return 0
	}
	return utilizationOf(s.rateOf(id), s.capacity[id])
}

// Congestion classifies the link's utilization at snapshot time.
func (s *Snapshot) Congestion(id LinkID) CongestionLevel {
	return congestionOf(s.Utilization(id))
}

// Capacity returns a link's capacity at snapshot time in bits/s (capacity
// is mutable at runtime via SetLinkCapacity, so it is frozen per snapshot).
func (s *Snapshot) Capacity(id LinkID) float64 {
	if !s.inRange(id) {
		return 0
	}
	return s.capacity[id]
}

// Headroom returns the unallocated capacity of a link in bits/s.
func (s *Snapshot) Headroom(id LinkID) float64 {
	if !s.inRange(id) {
		return 0
	}
	h := s.capacity[id] - s.rateOf(id)
	if h < 0 {
		h = 0
	}
	return h
}

// QueueDelay estimates the queueing delay added by a link at its
// snapshot-time utilization.
func (s *Snapshot) QueueDelay(id LinkID) time.Duration {
	if !s.inRange(id) {
		return 0
	}
	return queueDelayOf(s.Utilization(id), s.delay[id])
}

// LossRate estimates the packet loss probability on a link at its
// snapshot-time utilization.
func (s *Snapshot) LossRate(id LinkID) float64 {
	return lossRateOf(s.Utilization(id))
}

// FlowsOn returns the number of flows crossing a link at snapshot time.
func (s *Snapshot) FlowsOn(id LinkID) int {
	if !s.inRange(id) {
		return 0
	}
	return int(s.flowsOn[id])
}

// ActiveFlowsOn returns the number of flows with positive demand crossing a
// link at snapshot time.
func (s *Snapshot) ActiveFlowsOn(id LinkID) int {
	if !s.inRange(id) {
		return 0
	}
	return int(s.activeOn[id])
}

// NumFlows returns the number of active flows at snapshot time.
func (s *Snapshot) NumFlows() int { return s.flows.count }

// NumLinks returns the number of links the snapshot covers.
func (s *Snapshot) NumLinks() int { return len(s.rateBase) }

// Flow returns the frozen state of one flow, if it was live at snapshot
// time. The snapshot keeps no per-flow index (publishing one would cost
// O(flows) on every flow arrival or departure), so this is a range check per
// component and a binary search in the ones that could hold the ID —
// O(components · log flows-per-component), not O(1). It allocates nothing.
// To read many flows, use Flows.
func (s *Snapshot) Flow(id FlowID) (FlowView, bool) {
	return s.flows.lookup(id)
}

// Flows calls fn for every flow live at snapshot time, in unspecified
// order.
func (s *Snapshot) Flows(fn func(FlowView)) {
	for _, ch := range s.flows.chunks {
		if ch == nil {
			continue
		}
		for pos := range ch.flows {
			fn(ch.view(pos))
		}
	}
}

// Stats returns the allocator work counters at snapshot time.
func (s *Snapshot) Stats() Stats { return s.stats }

// ComponentView is one registry component's membership frozen at snapshot
// time: the component's chunk slot and its flow IDs in ascending order.
type ComponentView struct {
	Slot  int      `json:"slot"`
	Flows []FlowID `json:"flows"`
}

// Components returns the link-connected component membership at snapshot
// time, ordered by slot. This is a query-surface
// accessor: it allocates the result and is not part of the publish path.
func (s *Snapshot) Components() []ComponentView {
	var out []ComponentView
	for slot, ch := range s.flows.chunks {
		if ch == nil || len(ch.flows) == 0 {
			continue
		}
		ids := make([]FlowID, len(ch.flows))
		for i, e := range ch.flows {
			ids[i] = e.f.ID
		}
		out = append(out, ComponentView{Slot: slot, Flows: ids})
	}
	return out
}
