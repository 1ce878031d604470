// Package netsim models a capacitated network as a directed graph and
// allocates bandwidth to flows by max-min fairness (progressive filling).
//
// The model is the standard fluid approximation for long-lived TCP flows:
// each flow traverses a path of links, every link divides its capacity
// fairly among the flows that cross it, and a flow's rate is set by its most
// constrained link (or by its own demand, whichever is smaller). Rates are
// recomputed whenever the flow set or a demand changes, so "congestion" is
// always well-defined. Latency and loss are derived from link utilization
// with simple queueing-inspired formulas, giving the inference experiments
// (Figure 4) realistic network-level features.
package netsim

import (
	"fmt"
	"sort"
	"time"
)

// NodeID names a node in the topology (a client pool, a CDN cluster, a
// peering router, an origin, ...). IDs are free-form strings chosen by the
// scenario.
type NodeID string

// LinkID identifies a directed link. IDs are assigned densely by AddLink in
// insertion order, so they can index slices.
type LinkID int

// Link is a directed, capacitated link.
type Link struct {
	ID       LinkID
	From, To NodeID
	// Capacity is in bits per second.
	Capacity float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Name is an optional human-readable label ("peering-B", "access").
	Name string
}

// Topology is a directed multigraph. It is mutable only before flows are
// attached; scenarios build it once at setup time.
type Topology struct {
	nodes map[NodeID]bool
	links []*Link
	out   map[NodeID][]*Link
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		nodes: make(map[NodeID]bool),
		out:   make(map[NodeID][]*Link),
	}
}

// AddNode declares a node. Adding an existing node is a no-op.
func (t *Topology) AddNode(id NodeID) {
	t.nodes[id] = true
}

// HasNode reports whether id was added.
func (t *Topology) HasNode(id NodeID) bool { return t.nodes[id] }

// Nodes returns all node IDs in sorted order.
func (t *Topology) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(t.nodes))
	for id := range t.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AddLink adds a directed link and returns it. Both endpoints are added to
// the node set if absent. Capacity must be positive.
func (t *Topology) AddLink(from, to NodeID, capacity float64, delay time.Duration, name string) *Link {
	if capacity <= 0 {
		panic(fmt.Sprintf("netsim: non-positive capacity %v on link %s->%s", capacity, from, to))
	}
	if delay < 0 {
		panic(fmt.Sprintf("netsim: negative delay on link %s->%s", from, to))
	}
	t.AddNode(from)
	t.AddNode(to)
	l := &Link{ID: LinkID(len(t.links)), From: from, To: to, Capacity: capacity, Delay: delay, Name: name}
	t.links = append(t.links, l)
	t.out[from] = append(t.out[from], l)
	return l
}

// Link returns the link with the given ID, or nil.
func (t *Topology) Link(id LinkID) *Link {
	if int(id) < 0 || int(id) >= len(t.links) {
		return nil
	}
	return t.links[id]
}

// Links returns all links in insertion order.
func (t *Topology) Links() []*Link { return t.links }

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Out returns the outgoing links of a node.
func (t *Topology) Out(id NodeID) []*Link { return t.out[id] }

// Path is an ordered sequence of links from a source to a destination.
// An empty path is legal and models endpoints co-located on one node.
type Path []*Link

// Valid reports whether consecutive links are connected and, when from/to
// are non-empty, whether the path starts and ends there.
func (p Path) Valid(from, to NodeID) bool {
	if len(p) == 0 {
		return from == to || from == "" || to == ""
	}
	if from != "" && p[0].From != from {
		return false
	}
	for i := 1; i < len(p); i++ {
		if p[i].From != p[i-1].To {
			return false
		}
	}
	if to != "" && p[len(p)-1].To != to {
		return false
	}
	return true
}

// PropDelay returns the total one-way propagation delay of the path.
func (p Path) PropDelay() time.Duration {
	var d time.Duration
	for _, l := range p {
		d += l.Delay
	}
	return d
}

// String renders the path as "a->b->c".
func (p Path) String() string {
	if len(p) == 0 {
		return "(local)"
	}
	s := string(p[0].From)
	for _, l := range p {
		s += "->" + string(l.To)
	}
	return s
}

// ShortestPath returns the minimum-propagation-delay path from src to dst
// using Dijkstra's algorithm, or an error if dst is unreachable. Ties are
// broken by link insertion order, keeping routing deterministic.
func (t *Topology) ShortestPath(src, dst NodeID) (Path, error) {
	if !t.nodes[src] || !t.nodes[dst] {
		return nil, fmt.Errorf("netsim: unknown node in path %s->%s", src, dst)
	}
	if src == dst {
		return Path{}, nil
	}
	const inf = time.Duration(1<<63 - 1)
	dist := map[NodeID]time.Duration{src: 0}
	prev := map[NodeID]*Link{}
	visited := map[NodeID]bool{}
	for {
		// Extract the unvisited node with the smallest distance,
		// breaking ties by node ID for determinism.
		var u NodeID
		best := inf
		found := false
		for id, d := range dist {
			if visited[id] {
				continue
			}
			if d < best || (d == best && (!found || id < u)) {
				u, best, found = id, d, true
			}
		}
		if !found {
			return nil, fmt.Errorf("netsim: no path %s->%s", src, dst)
		}
		if u == dst {
			break
		}
		visited[u] = true
		for _, l := range t.out[u] {
			nd := best + l.Delay
			if cur, ok := dist[l.To]; !ok || nd < cur {
				dist[l.To] = nd
				prev[l.To] = l
			}
		}
	}
	var rev Path
	for at := dst; at != src; {
		l := prev[at]
		rev = append(rev, l)
		at = l.From
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p, nil
}
