package netsim

import (
	"fmt"
	"slices"
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
	st := NetState{
		NextID:     n.nextID,
		MaxRate:    n.maxRate,
		Capacities: make([]float64, n.topo.NumLinks()),
		LinkRates:  make([]float64, n.topo.NumLinks()),
	}
	for i, l := range n.topo.links {
		st.Capacities[i] = l.Capacity
	}
	copy(st.LinkRates, n.linkRate)
	ids := make([]FlowID, 0, len(n.flows))
	hops := 0
	for id, f := range n.flows {
		ids = append(ids, id)
		hops += len(f.Path)
	}
	slices.Sort(ids)
	// Every FlowState.Links is carved from one backing array; the
	// full-slice expression caps each at its own length, so an append to
	// one cannot write into its neighbour.
	links := make([]LinkID, 0, hops)
	st.Flows = make([]FlowState, 0, len(ids))
	for _, id := range ids {
		f := n.flows[id]
		from := len(links)
		for _, l := range f.Path {
			links = append(links, l.ID)
		}
		st.Flows = append(st.Flows, FlowState{
			ID: id, Links: links[from:len(links):len(links)], Demand: f.Demand, Weight: f.Weight, Tag: f.Tag,
		})
	}
	return st
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
