package core

import (
	"fmt"
	"sort"
)

// This file makes the §4 "recipe for interface design" executable:
//
//  1. enumerate use cases (the caller's job — a Recipe describes one),
//  2. posit a hypothetical global controller using all data to set all
//     knobs (the Uses edges),
//  3. map knobs and data to their natural owners; every Use edge whose knob
//     owner differs from its data owner is information that must cross an
//     EONA interface — the *wide* interface,
//  4. narrow: keep only the critical items, hiding the rest.
//
// E8 measures the QoE cost of each narrowing step against the global
// controller oracle.

// Owner is a party in the delivery ecosystem.
type Owner int

const (
	// OwnerAppP is the application provider.
	OwnerAppP Owner = iota
	// OwnerInfP is the infrastructure provider.
	OwnerInfP
)

// String names the owner.
func (o Owner) String() string {
	if o == OwnerAppP {
		return "AppP"
	}
	return "InfP"
}

// Direction is which way an interface item flows.
type Direction int

const (
	// A2I: AppP data needed by an InfP knob.
	A2I Direction = iota
	// I2A: InfP data needed by an AppP knob.
	I2A
)

// String names the direction.
func (d Direction) String() string {
	if d == A2I {
		return "A2I"
	}
	return "I2A"
}

// Knob is a control variable with its natural owner.
type Knob struct {
	Name  string
	Owner Owner
}

// DataAttr is an observable with its natural owner.
type DataAttr struct {
	Name  string
	Owner Owner
}

// Use is one edge of the hypothetical global controller's optimization:
// setting Knob requires reading Data.
type Use struct {
	Knob string
	Data string
}

// Recipe describes one use case per §4.
type Recipe struct {
	Knobs []Knob
	Data  []DataAttr
	Uses  []Use
}

// Item is one element of a derived interface: a data attribute that must be
// shared, and the direction it flows.
type Item struct {
	Data      string
	Direction Direction
	// Consumers lists the knobs (on the other side) that need it.
	Consumers []string
}

// Interface is a set of shared items.
type Interface struct {
	Items []Item
}

// Contains reports whether the interface shares the named data attribute.
func (iface Interface) Contains(data string) bool {
	for _, it := range iface.Items {
		if it.Data == data {
			return true
		}
	}
	return false
}

// Size returns the number of shared attributes.
func (iface Interface) Size() int { return len(iface.Items) }

// Validate checks referential integrity of the recipe.
func (r Recipe) Validate() error {
	knobs := map[string]Owner{}
	for _, k := range r.Knobs {
		if _, dup := knobs[k.Name]; dup {
			return fmt.Errorf("core: duplicate knob %q", k.Name)
		}
		knobs[k.Name] = k.Owner
	}
	data := map[string]Owner{}
	for _, d := range r.Data {
		if _, dup := data[d.Name]; dup {
			return fmt.Errorf("core: duplicate data attribute %q", d.Name)
		}
		data[d.Name] = d.Owner
	}
	for _, u := range r.Uses {
		if _, ok := knobs[u.Knob]; !ok {
			return fmt.Errorf("core: use references unknown knob %q", u.Knob)
		}
		if _, ok := data[u.Data]; !ok {
			return fmt.Errorf("core: use references unknown data %q", u.Data)
		}
	}
	return nil
}

// WideInterface derives step 3 of the recipe: every data attribute that a
// differently-owned knob needs, with its flow direction. The result is
// deterministic (sorted by data name).
func (r Recipe) WideInterface() (Interface, error) {
	if err := r.Validate(); err != nil {
		return Interface{}, err
	}
	knobOwner := map[string]Owner{}
	for _, k := range r.Knobs {
		knobOwner[k.Name] = k.Owner
	}
	dataOwner := map[string]Owner{}
	for _, d := range r.Data {
		dataOwner[d.Name] = d.Owner
	}
	consumers := map[string][]string{}
	for _, u := range r.Uses {
		if knobOwner[u.Knob] == dataOwner[u.Data] {
			continue // stays inside one party; not interface material
		}
		consumers[u.Data] = append(consumers[u.Data], u.Knob)
	}
	var items []Item
	for dataName, knobNames := range consumers {
		dir := I2A
		if dataOwner[dataName] == OwnerAppP {
			dir = A2I
		}
		sort.Strings(knobNames)
		items = append(items, Item{Data: dataName, Direction: dir, Consumers: dedup(knobNames)})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Data < items[j].Data })
	return Interface{Items: items}, nil
}

// Narrow keeps only the named data attributes of an interface — step 4 of
// the recipe. Unknown names are ignored (they were already private).
func (iface Interface) Narrow(keep ...string) Interface {
	keepSet := map[string]bool{}
	for _, k := range keep {
		keepSet[k] = true
	}
	var out Interface
	for _, it := range iface.Items {
		if keepSet[it.Data] {
			out.Items = append(out.Items, it)
		}
	}
	return out
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// Figure5Recipe is the paper's §4 illustrative example, encoded: the
// oscillation scenario of Figure 5 with its knobs, data, and the global
// controller's uses. Deriving its wide interface yields exactly the A2I and
// I2A items the paper lists.
func Figure5Recipe() Recipe {
	return Recipe{
		Knobs: []Knob{
			{Name: "cdn_choice", Owner: OwnerAppP},
			{Name: "bitrate", Owner: OwnerAppP},
			{Name: "peering_split", Owner: OwnerInfP},
		},
		Data: []DataAttr{
			{Name: "qoe_per_cdn", Owner: OwnerAppP},
			{Name: "traffic_volume_per_cdn", Owner: OwnerAppP},
			{Name: "peering_congestion", Owner: OwnerInfP},
			{Name: "peering_capacity", Owner: OwnerInfP},
			{Name: "current_egress", Owner: OwnerInfP},
			{Name: "user_identity", Owner: OwnerAppP},     // private: never used cross-party
			{Name: "isp_topology_full", Owner: OwnerInfP}, // private: never used cross-party
		},
		Uses: []Use{
			// The global controller sets the ISP's peering split using
			// the AppP's experience and volume data...
			{Knob: "peering_split", Data: "qoe_per_cdn"},
			{Knob: "peering_split", Data: "traffic_volume_per_cdn"},
			{Knob: "peering_split", Data: "peering_congestion"},
			{Knob: "peering_split", Data: "peering_capacity"},
			// ...and sets the AppP's CDN choice and bitrate using the
			// ISP's peering state and decisions.
			{Knob: "cdn_choice", Data: "peering_congestion"},
			{Knob: "cdn_choice", Data: "peering_capacity"},
			{Knob: "cdn_choice", Data: "current_egress"},
			{Knob: "cdn_choice", Data: "qoe_per_cdn"},
			{Knob: "bitrate", Data: "peering_congestion"},
			{Knob: "bitrate", Data: "qoe_per_cdn"},
		},
	}
}
