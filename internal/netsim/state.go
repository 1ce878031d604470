package netsim

import (
	"fmt"
	"time"
)

// FlowState is one flow's allocator-input state as captured by ExportState:
// everything that determines the flow's rate except the other flows.
type FlowState struct {
	ID     FlowID
	Links  []LinkID
	Demand float64
	Weight float64
	Tag    string
}

// NetState is a network's full allocator-input state at one instant: flow
// set, link capacities, ID counter and rate bound. Rates are deliberately
// derived data — they are a pure function of this state, so ImportState
// recomputes them instead of trusting a recording — but LinkRates carries
// the allocated per-link rates at export time so an external consumer (a
// journal snapshot, a recovery check) can verify a restored network
// reproduced them bit for bit.
type NetState struct {
	// NextID is the ID the next StartFlow will assign. Restoring it keeps
	// a snapshot-recovered network assigning the same IDs as the original
	// run, which tail replay depends on.
	NextID FlowID
	// MaxRate is the per-flow rate bound.
	MaxRate float64
	// Flows holds every live flow, sorted by ID.
	Flows []FlowState
	// Capacities holds every link's capacity, indexed by LinkID.
	Capacities []float64
	// LinkRates holds the allocated per-link rates at export time, indexed
	// by LinkID. Informational: ImportState ignores it.
	LinkRates []float64
}

// ExportState captures the network's allocator-input state. The result
// shares no memory with the network; it can be serialized, stored and
// re-imported on a fresh network over the same topology.
func (n *Network) ExportState() NetState {
	var st NetState
	n.exportState(&st, nil)
	return st
}

// exportState writes the network's allocator-input state into st, reusing
// st's slices, and carves every FlowState.Links from links, which it grows
// as needed and returns for the next call. Flows come out in ascending ID
// from a k-way merge of the registry components' member lists: the
// components partition the live flows (stale ones included) and each list is
// already in ID order, so there is no map walk and no sort. With st and links
// kept from an earlier call of the same size, it allocates nothing.
func (n *Network) exportState(st *NetState, links []LinkID) []LinkID {
	st.NextID, st.MaxRate = n.nextID, n.maxRate
	st.Capacities = reuse(st.Capacities, len(n.topo.links))
	for _, l := range n.topo.links {
		st.Capacities = append(st.Capacities, l.Capacity)
	}
	st.LinkRates = append(reuse(st.LinkRates, len(n.linkRate)), n.linkRate...)
	st.Flows = reuse(st.Flows, len(n.flows))

	runs, hops := n.scratchRuns[:0], 0
	for _, c := range n.slotComp {
		if c == nil || len(c.flows) == 0 {
			continue
		}
		for _, i := range c.flows {
			hops += len(n.arPath[i])
		}
		runs = append(runs, mergeRun{head: n.arID[c.flows[0]], rest: c.flows})
	}
	links = reuse(links, hops)
	for k := len(runs)/2 - 1; k >= 0; k-- {
		siftRun(runs, k)
	}
	for len(runs) > 0 {
		i := runs[0].rest[0]
		f := n.arFlow[i]
		// The full-slice expression caps each Links at its own length, so
		// an append to one cannot write into its neighbour.
		from := len(links)
		for _, l := range n.arPath[i] {
			links = append(links, LinkID(l))
		}
		st.Flows = append(st.Flows, FlowState{
			ID: f.ID, Links: links[from:len(links):len(links)], Demand: f.Demand, Weight: f.Weight, Tag: f.Tag,
		})
		if rest := runs[0].rest[1:]; len(rest) > 0 {
			runs[0] = mergeRun{head: n.arID[rest[0]], rest: rest}
		} else {
			last := len(runs) - 1
			runs[0] = runs[last]
			runs[last] = mergeRun{}
			runs = runs[:last]
		}
		siftRun(runs, 0)
	}
	n.scratchRuns = runs
	return links
}

// reuse empties s for n elements, allocating only when it is nil or too
// small, so a fresh export's slices are non-nil even when empty.
func reuse[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// mergeRun is one component's not-yet-exported members in exportState's
// merge: rest[0] is the next member, head its flow ID.
type mergeRun struct {
	head FlowID
	rest []int32
}

// siftRun restores the min-heap order on head below runs[k].
func siftRun(runs []mergeRun, k int) {
	for {
		m := k
		if l := 2*k + 1; l < len(runs) && runs[l].head < runs[m].head {
			m = l
		}
		if r := 2*k + 2; r < len(runs) && runs[r].head < runs[m].head {
			m = r
		}
		if m == k {
			return
		}
		runs[k], runs[m] = runs[m], runs[k]
		k = m
	}
}

// ImportState restores an exported state onto a fresh network built over an
// identical topology: capacities are applied, every flow is re-attached
// with its recorded ID, and the ID counter resumes where the export left
// off, so replaying a log tail recorded after the export continues exactly
// as the original run did. Rates are recomputed, not restored — they are a
// deterministic function of the imported inputs. The network must be
// fresh: importing over existing flows (or after any StartFlow) is an
// error.
func (n *Network) ImportState(st NetState) error {
	if len(n.flows) != 0 || n.nextID != 0 {
		return fmt.Errorf("netsim: ImportState on a non-fresh network (%d flows, next ID %d)", len(n.flows), n.nextID)
	}
	if len(st.Capacities) != n.topo.NumLinks() {
		return fmt.Errorf("netsim: ImportState capacity count %d does not match topology's %d links", len(st.Capacities), n.topo.NumLinks())
	}
	var err error
	n.Batch(func() {
		for i, c := range st.Capacities {
			if c <= 0 {
				err = fmt.Errorf("netsim: ImportState non-positive capacity %v for link %d", c, i)
				return
			}
			n.SetLinkCapacity(LinkID(i), c)
		}
		if st.MaxRate > 0 {
			n.SetMaxRate(st.MaxRate)
		}
		var prev FlowID = -1
		for _, fs := range st.Flows {
			if fs.ID <= prev {
				err = fmt.Errorf("netsim: ImportState flows not strictly ascending at ID %d", fs.ID)
				return
			}
			prev = fs.ID
			p, perr := n.topo.pathOf(fs.Links)
			if perr != nil {
				err = fmt.Errorf("netsim: ImportState flow %d: %w", fs.ID, perr)
				return
			}
			n.nextID = fs.ID
			f := n.StartFlow(p, fs.Demand, fs.Tag)
			if fs.Weight != 0 {
				n.SetWeight(f, fs.Weight)
			}
		}
		if st.NextID < prev+1 {
			err = fmt.Errorf("netsim: ImportState NextID %d below last flow ID %d", st.NextID, prev)
			return
		}
		n.nextID = st.NextID
	})
	return err
}

// LinkState is one link of an exported topology.
type LinkState struct {
	From, To NodeID
	Capacity float64
	Delay    time.Duration
	Name     string
}

// TopoState is a topology serialized as data: links in LinkID order. A
// journal stores one so recovery (and offline tools like bisect) can
// rebuild the exact graph without access to the scenario code that built
// it. Capacities here are the construction-time values; runtime
// SetLinkCapacity edits live in the op log / NetState.
type TopoState struct {
	Links []LinkState
}

// ExportTopology flattens a topology into data.
func ExportTopology(t *Topology) TopoState {
	ts := TopoState{Links: make([]LinkState, 0, len(t.links))}
	for _, l := range t.links {
		ts.Links = append(ts.Links, LinkState{
			From: l.From, To: l.To, Capacity: l.Capacity, Delay: l.Delay, Name: l.Name,
		})
	}
	return ts
}

// Build reconstructs the topology: links are added in order, so LinkIDs
// match the exported graph.
func (ts TopoState) Build() *Topology {
	t := NewTopology()
	for _, l := range ts.Links {
		t.AddLink(l.From, l.To, l.Capacity, l.Delay, l.Name)
	}
	return t
}
