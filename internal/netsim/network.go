package netsim

import (
	"fmt"
	"slices"
	"time"
)

// FlowID identifies an active flow.
type FlowID int64

// Flow is a fluid flow over a path. The Network writes every field and
// callers never write any: Rate is maintained by the max-min fair
// allocator, and Demand, Weight and Path change only through the Network's
// setters. ID and Tag are fixed when the flow is attached and never written
// again, so snapshots read them through the handle instead of copying them.
type Flow struct {
	ID   FlowID
	Path Path
	// Demand is the application-limited sending rate ceiling in bits/s.
	// Use math.Inf(1) for a greedy flow such as a video segment download;
	// the Network's MaxRate (SetMaxRate) caps it.
	Demand float64
	// Rate is the currently allocated rate in bits/s.
	Rate float64
	// Weight scales the flow's share under contention (weighted max-min:
	// a weight-2 flow gets twice a weight-1 flow's share at a shared
	// bottleneck). Zero or negative means 1. Set via SetWeight.
	Weight float64
	// Tag is an opaque scenario label ("cdnX", "appP2") used by
	// experiments to group flows when reading link statistics.
	Tag string
	// idx is the flow's dense arena index (arena.go) while attached, and
	// noIdx when detached.
	idx int32
}

func (f *Flow) weight() float64 {
	if f.Weight <= 0 {
		return 1
	}
	return f.Weight
}

// DefaultMaxRate caps greedy flows at a last-mile/NIC limit so that every
// allocation is finite even on an empty path. 1 Gbps.
const DefaultMaxRate = 1e9

// Network owns a topology plus the set of active flows and keeps flow rates
// max-min fair. It is not safe for concurrent use; all EONA experiments
// drive it from a single simulator goroutine.
//
// Allocation is component-decomposed: flows that (transitively) share a
// link form a connected component, and each component's rates depend only
// on that component's flows and links. A mutation therefore recomputes only
// the components it dirties; rates in untouched components are not written
// at all, so they stay byte-identical across unrelated churn. Batch /
// BeginBatch / EndBatch coalesce any number of mutations into a single
// recomputation of the union of their dirty components.
type Network struct {
	topo  *Topology
	flows map[FlowID]*Flow
	// linkRate[l] is the current total allocated rate on link l.
	linkRate []float64
	// linkFlows[l] indexes the flows currently crossing link l, for
	// component discovery and O(1) FlowsOn.
	linkFlows []map[FlowID]*Flow
	nextID    FlowID
	// maxRate bounds every flow's rate (models the client NIC / last hop).
	// SetMaxRate is its only writer.
	maxRate float64
	// comp is the persistent component registry's flow→component membership
	// (registry.go); every live flow has an entry.
	comp map[FlowID]*component

	// stats holds the allocator's work counters, read through Stats.
	stats Stats

	// Batching and dirty tracking.
	batchDepth int
	pending    bool
	// dirtyFlows (arena indices) and dirtyLinks list what the mutations
	// since the last commit touched, in op order, each once (flowDirty and
	// linkDirty say who is listed). Walking or emptying a list costs its
	// length; a map charges its high-water capacity for both, on every later
	// one-flow commit. A listed index may since have been vacated (skipped
	// at commit) or re-used by a new flow (dirty anyway).
	dirtyFlows []int32
	dirtyLinks []LinkID
	flowDirty  []bool // by arena index
	linkDirty  []bool // by LinkID

	// Scratch buffers reused across fills (indexed by LinkID; only
	// entries for the component being filled are initialized).
	scratchAvail  []float64
	scratchWeight []float64

	// flowSum is the wrapping sum of the live flows' digest fingerprints
	// (arFP) — the multiset half of StateDigest (digest.go).
	flowSum uint64

	// Index arena (arena.go): parallel arrays over dense flow indices,
	// kept in lockstep by the mutators.
	arFlow   []*Flow
	arID     []FlowID
	arDemand []float64
	arWeight []float64 // effective weight (weight())
	arRate   []float64
	arPath   [][]int32
	arStatic []uint64 // flowStatic: digest hash of (ID, tag, path)
	arFP     []uint64 // the slot's contribution to flowSum; 0 when free
	arFree   []int32  // freelist of recycled arena indices

	// Epoch-stamped "seen" marks (arena.go): a flow/link is seen iff its
	// stamp equals epoch, so clearing a mark set is one increment.
	flowMark []uint64 // by arena index
	linkMark []uint64 // by LinkID
	epoch    uint64

	// Scratch reused across commits; never escapes a single reallocate.
	scratchStack  []*Flow      // expand's DFS stack
	scratchFlows  []*Flow      // expand's component members
	scratchLinks  []LinkID     // one component's links
	scratchRate   []float64    // per-component fill rates
	scratchFrozen []bool       // per-component fill freeze marks
	scratchComps  []*component // components touched by one commit
	scratchRuns   []mergeRun   // exportState's merge heap
	compPool      []*component // recycled component husks (cleared member lists)

	// Snapshot copy-on-write bookkeeping (snapshot.go): per-facet dirty
	// flags consumed by SharedNetwork's snapshotDelta, and per-component
	// chunk slots for the flow table.
	slotComp    []*component // slot → owning component (nil when free)
	slotFree    []int32      // freelist of chunk slots
	chunkDirty  []bool       // slot → chunk rates/demands need rebuild
	chunkStatic []bool       // slot → chunk membership/weights changed too
	dirtyChunks int
	rateDirty   []bool          // link → rate changed since last delta snapshot
	rateList    []LinkID        // the set bits of rateDirty, in mark order
	snapCap     bool            // a link capacity changed
	snapOn      bool            // flowsOn/activeOn changed
	snapFreed   bool            // a chunk slot was freed: the table changed even with no dirty chunk
	snapDelay   []time.Duration // immutable per-link delays, shared by snapshots
	activeOn    []int32         // per-link count of flows with Demand > 0
}

// NewNetwork wraps a topology. The topology must not gain links afterwards.
func NewNetwork(t *Topology) *Network {
	n := &Network{
		topo:          t,
		flows:         make(map[FlowID]*Flow),
		linkRate:      make([]float64, t.NumLinks()),
		linkFlows:     make([]map[FlowID]*Flow, t.NumLinks()),
		maxRate:       DefaultMaxRate,
		comp:          make(map[FlowID]*component),
		scratchAvail:  make([]float64, t.NumLinks()),
		scratchWeight: make([]float64, t.NumLinks()),
		linkMark:      make([]uint64, t.NumLinks()),
		linkDirty:     make([]bool, t.NumLinks()),
		rateDirty:     make([]bool, t.NumLinks()),
		activeOn:      make([]int32, t.NumLinks()),
		snapDelay:     make([]time.Duration, t.NumLinks()),
	}
	for i := range n.snapDelay {
		n.snapDelay[i] = t.links[i].Delay
	}
	return n
}

// Topology returns the underlying topology.
func (n *Network) Topology() *Topology { return n.topo }

// NumFlows returns the number of active flows.
func (n *Network) NumFlows() int { return len(n.flows) }

// Batch runs fn with reallocation deferred: however many mutations fn
// performs, rates are recomputed once, over the union of the dirtied
// components, when fn returns. Batches nest; the recomputation happens when
// the outermost batch ends. The deferred commit also runs if fn panics, so
// the network is left consistent while the panic unwinds.
func (n *Network) Batch(fn func()) {
	n.BeginBatch()
	defer n.EndBatch()
	fn()
}

// BeginBatch defers reallocation until the matching EndBatch. Prefer Batch,
// which is panic-safe by construction; with BeginBatch the caller owns the
// unwinding (defer n.EndBatch()).
func (n *Network) BeginBatch() { n.batchDepth++ }

// EndBatch closes the innermost batch; closing the outermost batch commits
// any pending mutations in a single reallocation. EndBatch without a
// matching BeginBatch panics.
func (n *Network) EndBatch() {
	if n.batchDepth == 0 {
		panic("netsim: EndBatch without BeginBatch")
	}
	n.batchDepth--
	if n.batchDepth == 0 && n.pending {
		n.pending = false
		n.reallocate()
	}
}

// InBatch reports whether a batch is open. While true, Flow.Rate and link
// statistics are stale: they reflect the state before the batch began.
func (n *Network) InBatch() bool { return n.batchDepth > 0 }

// commit triggers a reallocation now, or records that one is owed if a
// batch is open.
func (n *Network) commit() {
	if n.batchDepth > 0 {
		n.pending = true
		return
	}
	n.reallocate()
}

func (n *Network) markFlowDirty(f *Flow) {
	if !n.flowDirty[f.idx] {
		n.flowDirty[f.idx] = true
		n.dirtyFlows = append(n.dirtyFlows, f.idx)
	}
}

func (n *Network) markLinkDirty(id LinkID) {
	if !n.linkDirty[id] {
		n.linkDirty[id] = true
		n.dirtyLinks = append(n.dirtyLinks, id)
	}
}

func (n *Network) markPathDirty(p Path) {
	for _, l := range p {
		n.markLinkDirty(l.ID)
	}
}

func (n *Network) indexFlow(f *Flow) {
	for _, l := range f.Path {
		if n.linkFlows[l.ID] == nil {
			n.linkFlows[l.ID] = make(map[FlowID]*Flow)
		}
		n.linkFlows[l.ID][f.ID] = f
	}
}

func (n *Network) unindexFlow(f *Flow) {
	for _, l := range f.Path {
		delete(n.linkFlows[l.ID], f.ID)
	}
}

// attached reports whether f is a live flow of this network. Detached
// (stopped) flows are dead objects: mutating them must not disturb the
// allocation.
func (n *Network) attached(f *Flow) bool {
	if f == nil {
		return false
	}
	g, ok := n.flows[f.ID]
	return ok && g == f
}

// StartFlow attaches a flow on path with the given demand and tag, then
// reallocates. The path must be connected (panics otherwise: a disconnected
// path is a scenario bug, not a runtime condition).
func (n *Network) StartFlow(path Path, demand float64, tag string) *Flow {
	f := &Flow{}
	n.startFlowAs(f, path, demand, tag)
	return f
}

// startFlowAs attaches a caller-provided flow handle. SharedNetwork hands
// callers their *Flow before the op is applied (in deterministic mode, a
// Commit later); its write path fills it in here so the caller's handle
// and the network's handle are the same object.
func (n *Network) startFlowAs(f *Flow, path Path, demand float64, tag string) {
	if !path.Valid("", "") {
		panic(fmt.Sprintf("netsim: disconnected path %v", path))
	}
	if demand < 0 {
		demand = 0
	}
	f.ID, f.Path, f.Demand, f.Rate, f.Weight, f.Tag = n.nextID, path, demand, 0, 0, tag
	n.nextID++
	n.flows[f.ID] = f
	n.indexFlow(f)
	n.arenaAttach(f)
	n.regAdd(f)
	if demand > 0 {
		n.bumpActive(path, 1)
	}
	n.snapOn = true
	n.markFlowDirty(f)
	n.commit()
}

// bumpActive adjusts the incremental per-link active-flow counters for a
// flow with positive demand entering (+1) or leaving (-1) the links of p.
func (n *Network) bumpActive(p Path, delta int32) {
	for _, l := range p {
		n.activeOn[l.ID] += delta
	}
}

// StopFlow detaches a flow and reallocates. Stopping an unknown or
// already-stopped flow is a no-op.
func (n *Network) StopFlow(f *Flow) {
	if !n.attached(f) {
		return
	}
	delete(n.flows, f.ID)
	n.unindexFlow(f)
	n.regRemove(f)
	n.arenaDetach(f)
	if f.Demand > 0 {
		n.bumpActive(f.Path, -1)
	}
	n.snapOn = true
	f.Rate = 0
	n.markPathDirty(f.Path)
	n.commit()
}

// SetDemand updates a flow's demand ceiling and reallocates. Calling it on
// a stopped (detached) flow is a no-op, mirroring StopFlow.
func (n *Network) SetDemand(f *Flow, demand float64) {
	if !n.attached(f) {
		return
	}
	if demand < 0 {
		demand = 0
	}
	if f.Demand == demand {
		return
	}
	if (f.Demand > 0) != (demand > 0) {
		if demand > 0 {
			n.bumpActive(f.Path, 1)
		} else {
			n.bumpActive(f.Path, -1)
		}
		n.snapOn = true
	}
	f.Demand = demand
	n.arDemand[f.idx] = demand
	n.refingerprint(f)
	n.markFlowDirty(f)
	n.commit()
}

// SetWeight updates a flow's fair-share weight and reallocates. Calling it
// on a stopped (detached) flow is a no-op, mirroring StopFlow.
func (n *Network) SetWeight(f *Flow, weight float64) {
	if !n.attached(f) {
		return
	}
	if f.Weight == weight {
		return
	}
	f.Weight = weight
	n.arWeight[f.idx] = f.weight()
	n.refingerprint(f)
	n.markChunkStatic(n.comp[f.ID]) // weight is a static snapshot field
	n.markFlowDirty(f)
	n.commit()
}

// SetPath re-routes a flow (e.g., after an ISP egress change) and
// reallocates. Calling it on a stopped (detached) flow is a no-op,
// mirroring StopFlow.
func (n *Network) SetPath(f *Flow, path Path) {
	if !path.Valid("", "") {
		panic(fmt.Sprintf("netsim: disconnected path %v", path))
	}
	if !n.attached(f) {
		return
	}
	n.unindexFlow(f)
	n.regRemove(f)          // leaves the old component, possibly marking it stale
	n.markPathDirty(f.Path) // the links the flow is leaving
	if f.Demand > 0 {
		n.bumpActive(f.Path, -1)
	}
	f.Path = path
	n.arenaSetPath(f)
	n.indexFlow(f)
	n.regAdd(f) // joins (or founds) the component of the new path
	if f.Demand > 0 {
		n.bumpActive(path, 1)
	}
	n.snapOn = true
	n.markFlowDirty(f)
	n.commit()
}

// SetLinkCapacity changes a link's capacity at runtime (maintenance,
// degradation, an upgrade) and reallocates. Capacity must stay positive —
// model a dead link as a tiny capacity (flows stay routed but starve),
// or re-path flows off it.
func (n *Network) SetLinkCapacity(id LinkID, capacity float64) {
	l := n.topo.Link(id)
	if l == nil {
		panic(fmt.Sprintf("netsim: SetLinkCapacity on unknown link %d", id))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: non-positive capacity %v for link %s->%s", capacity, l.From, l.To))
	}
	if l.Capacity == capacity {
		return
	}
	l.Capacity = capacity
	n.snapCap = true
	n.markLinkDirty(id)
	n.commit()
}

// SetMaxRate changes the per-flow rate bound and reallocates. Every
// component depends on the bound, so every live flow is marked dirty and the
// commit refills them all through the one incremental path.
func (n *Network) SetMaxRate(bps float64) {
	if bps <= 0 {
		panic(fmt.Sprintf("netsim: non-positive MaxRate %v", bps))
	}
	if n.maxRate == bps {
		return
	}
	n.maxRate = bps
	for _, f := range n.arFlow {
		if f != nil {
			n.markFlowDirty(f)
		}
	}
	n.commit()
}

func (n *Network) clearDirty() {
	for _, i := range n.dirtyFlows {
		n.flowDirty[i] = false
	}
	for _, id := range n.dirtyLinks {
		n.linkDirty[id] = false
	}
	n.dirtyFlows, n.dirtyLinks = n.dirtyFlows[:0], n.dirtyLinks[:0]
}

// reallocate recomputes rates for the components the pending mutations
// dirtied (reallocateRegistry).
func (n *Network) reallocate() {
	n.stats.Reallocations++
	n.stats.IncrementalReallocations++
	n.reallocateRegistry()
	n.clearDirty()
}

// flowIDCmp orders flows by ascending ID — the canonical component order.
func flowIDCmp(a, b *Flow) int {
	switch {
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// expand grows the connected component containing seed — flow → its links →
// every flow on those links, transitively — appending members and links to
// the caller's buffers and returning them extended. Seen marks are epoch
// stamps: the caller bumps the epoch once per discovery pass, so nothing is
// cleared afterwards. The appended flow range is sorted by ID.
func (n *Network) expand(seed *Flow, flows []*Flow, links []LinkID) ([]*Flow, []LinkID) {
	f0 := len(flows)
	stack := append(n.scratchStack[:0], seed)
	n.markFlow(seed)
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		flows = append(flows, f)
		for _, l := range f.Path {
			if n.linkSeen(l.ID) {
				continue
			}
			n.markLink(l.ID)
			links = append(links, l.ID)
			for _, g := range n.linkFlows[l.ID] {
				if !n.flowSeen(g) {
					n.markFlow(g)
					stack = append(stack, g)
				}
			}
		}
	}
	n.scratchStack = stack
	slices.SortFunc(flows[f0:], flowIDCmp)
	return flows, links
}

// LinkRate returns the total allocated rate on a link in bits/s.
func (n *Network) LinkRate(id LinkID) float64 {
	if int(id) < 0 || int(id) >= len(n.linkRate) {
		return 0
	}
	return n.linkRate[id]
}

// Utilization returns allocated/capacity for a link, in [0,1].
func (n *Network) Utilization(id LinkID) float64 {
	l := n.topo.Link(id)
	if l == nil {
		return 0
	}
	return utilizationOf(n.linkRate[id], l.Capacity)
}

// FlowsOn returns the number of flows crossing a link.
func (n *Network) FlowsOn(id LinkID) int {
	if int(id) < 0 || int(id) >= len(n.linkFlows) {
		return 0
	}
	return len(n.linkFlows[id])
}

// ActiveFlowsOn returns the number of flows crossing a link with positive
// demand — what an operator sees as "currently sending" when sizing
// per-flow guidance.
func (n *Network) ActiveFlowsOn(id LinkID) int {
	if int(id) < 0 || int(id) >= len(n.activeOn) {
		return 0
	}
	return int(n.activeOn[id])
}

// QueueDelay estimates the queueing delay added by a link at its current
// utilization, using a capped M/M/1-style growth curve: delay rises as
// util/(1-util), capped at 50× the propagation delay (a bufferbloat bound).
func (n *Network) QueueDelay(id LinkID) time.Duration {
	l := n.topo.Link(id)
	if l == nil {
		return 0
	}
	return queueDelayOf(n.Utilization(id), l.Delay)
}

// PathRTT returns the round-trip time of a path including queueing delay on
// the forward direction (the reverse/ACK direction is approximated as
// uncongested, which matches the download-dominated scenarios here).
func (n *Network) PathRTT(p Path) time.Duration {
	rtt := 2 * p.PropDelay()
	for _, l := range p {
		rtt += n.QueueDelay(l.ID)
	}
	return rtt
}

// LossRate estimates the packet loss probability on a link: zero below 90%
// utilization, rising quadratically to 5% at full utilization. This feeds
// the network-level features used by the inference baseline (Figure 4).
func (n *Network) LossRate(id LinkID) float64 {
	return lossRateOf(n.Utilization(id))
}

// PathLoss returns the combined loss probability along a path.
func (n *Network) PathLoss(p Path) float64 {
	keep := 1.0
	for _, l := range p {
		keep *= 1 - n.LossRate(l.ID)
	}
	return 1 - keep
}

// CongestionLevel classifies a link's utilization for I2A export.
type CongestionLevel int

const (
	// CongestionNone: utilization below 70%.
	CongestionNone CongestionLevel = iota
	// CongestionModerate: utilization in [70%, 90%).
	CongestionModerate
	// CongestionHigh: utilization in [90%, 98%).
	CongestionHigh
	// CongestionSevere: utilization at or above 98%.
	CongestionSevere
)

// String returns the lowercase name of the level.
func (c CongestionLevel) String() string {
	switch c {
	case CongestionNone:
		return "none"
	case CongestionModerate:
		return "moderate"
	case CongestionHigh:
		return "high"
	case CongestionSevere:
		return "severe"
	default:
		return fmt.Sprintf("CongestionLevel(%d)", int(c))
	}
}

// Congestion classifies the current utilization of a link.
func (n *Network) Congestion(id LinkID) CongestionLevel {
	return congestionOf(n.Utilization(id))
}

// Headroom returns the unallocated capacity of a link in bits/s.
func (n *Network) Headroom(id LinkID) float64 {
	l := n.topo.Link(id)
	if l == nil {
		return 0
	}
	h := l.Capacity - n.linkRate[id]
	if h < 0 {
		h = 0
	}
	return h
}

// NoteCoalescedReactions adds k to the CoalescedReactions counter, its only
// writer (control.Coalescer calls it once per coalesced commit).
func (n *Network) NoteCoalescedReactions(k uint64) {
	n.stats.CoalescedReactions += k
}
