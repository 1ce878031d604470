// Package isp models an access ISP: a client population behind a shared
// access link, a border router, and a set of peering points through which
// traffic egresses toward CDNs and IXPs.
//
// The ISP's knob is the egress (peering point) used for each CDN's traffic —
// exactly the knob in the paper's Figure 5 oscillation scenario. The ISP
// also *observes* link congestion, which is the raw data behind its
// EONA-I2A exports (peering congestion levels, capacity headroom, and
// bottleneck attribution). Decision *policies* live in internal/control;
// this package provides mechanism: routing flows via the chosen egress,
// rerouting them when the choice changes, and reporting link state.
package isp

import (
	"fmt"
	"sort"

	"eona/internal/netsim"
)

// PeeringPoint is one egress adjacency of the ISP.
type PeeringPoint struct {
	// ID names the point ("B-local", "C-ixp").
	ID string
	// Link is the egress link from the ISP border to the peer side.
	Link *netsim.Link
	// reachable is the set of CDN names whose clusters can be reached
	// beyond this point.
	reachable map[string]bool
}

// Reaches reports whether cdnName is reachable via this peering point.
func (p *PeeringPoint) Reaches(cdnName string) bool { return p.reachable[cdnName] }

// ISP is the access network. Not safe for concurrent use; driven from the
// simulator goroutine.
type ISP struct {
	Name string
	// Border is the node where peering links start.
	Border netsim.NodeID
	// Access is the shared access/aggregation link from clients to the
	// border (the congested link in the Figure 3 flash-crowd scenario).
	Access *netsim.Link

	net      *netsim.Network
	peerings []*PeeringPoint
	egress   map[string]*PeeringPoint // current egress per CDN
	// flows tracks the destination of each flow this ISP routed, so a
	// TE change can re-path live traffic.
	flows map[netsim.FlowID]*routedFlow
	// EgressChanges counts TE re-decisions, the oscillation observable.
	EgressChanges int
}

type routedFlow struct {
	flow *netsim.Flow
	cdn  string
	dst  netsim.NodeID
}

// Config describes an ISP to build.
type Config struct {
	Name       string
	ClientNode netsim.NodeID
	Border     netsim.NodeID
	Access     *netsim.Link
}

// New builds an ISP. The access link must run from ClientNode to Border.
func New(net *netsim.Network, cfg Config) *ISP {
	if cfg.Access == nil || cfg.Access.From != cfg.ClientNode || cfg.Access.To != cfg.Border {
		panic(fmt.Sprintf("isp: access link must run %s->%s", cfg.ClientNode, cfg.Border))
	}
	return &ISP{
		Name:   cfg.Name,
		Border: cfg.Border,
		Access: cfg.Access,
		net:    net,
		egress: make(map[string]*PeeringPoint),
		flows:  make(map[netsim.FlowID]*routedFlow),
	}
}

// AddPeering declares a peering point on an existing link from the border,
// reachable for the given CDN names.
func (i *ISP) AddPeering(id string, link *netsim.Link, cdns ...string) *PeeringPoint {
	if link.From != i.Border {
		panic(fmt.Sprintf("isp: peering link must start at border %s", i.Border))
	}
	p := &PeeringPoint{ID: id, Link: link, reachable: make(map[string]bool)}
	for _, c := range cdns {
		p.reachable[c] = true
	}
	i.peerings = append(i.peerings, p)
	return p
}

// Peering returns the peering point with the given ID, or nil.
func (i *ISP) Peering(id string) *PeeringPoint {
	for _, p := range i.peerings {
		if p.ID == id {
			return p
		}
	}
	return nil
}

// EgressOf returns the current egress choice for a CDN; if none was set it
// defaults to the first peering point that reaches the CDN (and records
// that default). Returns nil if no peering reaches the CDN.
func (i *ISP) EgressOf(cdnName string) *PeeringPoint {
	if p, ok := i.egress[cdnName]; ok {
		return p
	}
	for _, p := range i.peerings {
		if p.Reaches(cdnName) {
			i.egress[cdnName] = p
			return p
		}
	}
	return nil
}

// PathTo computes the current path from the ISP's clients to dst for
// cdnName's traffic: access link, the chosen egress link, then the shortest
// path from the peer side to dst.
func (i *ISP) PathTo(cdnName string, dst netsim.NodeID) (netsim.Path, error) {
	eg := i.EgressOf(cdnName)
	if eg == nil {
		return nil, fmt.Errorf("isp %s: no peering reaches CDN %q", i.Name, cdnName)
	}
	tail, err := i.net.Topology().ShortestPath(eg.Link.To, dst)
	if err != nil {
		return nil, fmt.Errorf("isp %s: egress %s cannot reach %s: %w", i.Name, eg.ID, dst, err)
	}
	p := netsim.Path{i.Access, eg.Link}
	return append(p, tail...), nil
}

// Connect starts a flow from the clients to dst, routed via the current
// egress for cdnName, and registers it for rerouting on TE changes.
func (i *ISP) Connect(cdnName string, dst netsim.NodeID, demand float64, tag string) (*netsim.Flow, error) {
	p, err := i.PathTo(cdnName, dst)
	if err != nil {
		return nil, err
	}
	f := i.net.StartFlow(p, demand, tag)
	i.flows[f.ID] = &routedFlow{flow: f, cdn: cdnName, dst: dst}
	return f, nil
}

// Disconnect stops a flow previously created with Connect.
func (i *ISP) Disconnect(f *netsim.Flow) {
	if f == nil {
		return
	}
	delete(i.flows, f.ID)
	i.net.StopFlow(f)
}

// Retarget updates the registered CDN and destination of a live flow (the
// AppP switched CDN or server) and re-paths it via the egress for the new
// CDN.
func (i *ISP) Retarget(f *netsim.Flow, cdnName string, dst netsim.NodeID) error {
	rf, ok := i.flows[f.ID]
	if !ok {
		return fmt.Errorf("isp %s: flow %d not registered", i.Name, f.ID)
	}
	p, err := i.PathTo(cdnName, dst)
	if err != nil {
		return err
	}
	rf.cdn = cdnName
	rf.dst = dst
	i.net.SetPath(f, p)
	return nil
}

// SetEgress points cdnName's traffic at peering point id and re-paths all
// registered flows for that CDN. Setting the already-current egress is a
// no-op (and does not count as a change).
func (i *ISP) SetEgress(cdnName, peeringID string) error {
	p := i.Peering(peeringID)
	if p == nil {
		return fmt.Errorf("isp %s: unknown peering %q", i.Name, peeringID)
	}
	if !p.Reaches(cdnName) {
		return fmt.Errorf("isp %s: peering %s does not reach CDN %q", i.Name, peeringID, cdnName)
	}
	if i.egress[cdnName] == p {
		return nil
	}
	i.egress[cdnName] = p
	i.EgressChanges++
	// Re-path live flows for this CDN deterministically (by flow ID),
	// batched: one TE change re-paths the whole CDN's flow set in a
	// single reallocation instead of one per flow.
	ids := make([]netsim.FlowID, 0)
	for id, rf := range i.flows {
		if rf.cdn == cdnName {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var err error
	i.net.Batch(func() {
		for _, id := range ids {
			rf := i.flows[id]
			np, perr := i.PathTo(cdnName, rf.dst)
			if perr != nil {
				err = perr
				return
			}
			i.net.SetPath(rf.flow, np)
		}
	})
	return err
}

// LinkReport is the ISP's observation of one of its links — the raw data
// for EONA-I2A exports.
type LinkReport struct {
	// PeeringID is empty for the access link.
	PeeringID  string
	Congestion netsim.CongestionLevel
	// Utilization in [0,1].
	Utilization float64
	// HeadroomBps is unallocated capacity in bits/s.
	HeadroomBps float64
	// CapacityBps is the link capacity in bits/s.
	CapacityBps float64
}

// AccessReport returns the current state of the access link.
func (i *ISP) AccessReport() LinkReport {
	id := i.Access.ID
	return LinkReport{
		Congestion:  i.net.Congestion(id),
		Utilization: i.net.Utilization(id),
		HeadroomBps: i.net.Headroom(id),
		CapacityBps: i.Access.Capacity,
	}
}

// PeeringReports returns the state of every peering link, in declaration
// order.
func (i *ISP) PeeringReports() []LinkReport {
	out := make([]LinkReport, 0, len(i.peerings))
	for _, p := range i.peerings {
		id := p.Link.ID
		out = append(out, LinkReport{
			PeeringID:   p.ID,
			Congestion:  i.net.Congestion(id),
			Utilization: i.net.Utilization(id),
			HeadroomBps: i.net.Headroom(id),
			CapacityBps: p.Link.Capacity,
		})
	}
	return out
}
