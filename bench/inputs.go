package main

import (
	"fmt"
	"math/rand"
	"time"

	"eona/internal/core"
	"eona/internal/netsim"
	"eona/internal/qoe"
)

// Every generated input comes from the run's seed; the program under test
// receives only the inputs.

const (
	isps       = 16
	cdns       = 8
	groups     = isps * cdns // summary groups the looking glass exports
	preloadN   = 20000       // session records a looking-glass node starts with
	churnFlows = 1000        // flows a net-churn node starts with
)

// genRecords makes n session records spread evenly over the 128 (ISP, CDN)
// groups, with seeded metrics and timestamps inside the traffic window.
func genRecords(seed int64, n int) []core.QoERecord {
	rng := rand.New(rand.NewSource(seed))
	model := qoe.DefaultModel()
	recs := make([]core.QoERecord, n)
	for i := range recs {
		g := i % groups
		m := qoe.SessionMetrics{
			StartupDelay:  time.Duration(300+rng.Intn(4000)) * time.Millisecond,
			PlayTime:      time.Duration(1+rng.Intn(30)) * time.Minute,
			BufferingTime: time.Duration(rng.Intn(40)) * time.Second,
			AvgBitrate:    float64(1+rng.Intn(8)) * 1e6,
			Abandoned:     rng.Intn(20) == 0,
		}
		at := time.Duration(rng.Int63n(int64(trafficNow)))
		recs[i] = core.RecordFrom(model, m, fmt.Sprintf("s%06d", i), "demo-vod",
			fmt.Sprintf("isp-%02d", g/cdns), fmt.Sprintf("cdn-%d", g%cdns), "east", at)
	}
	return recs
}

// demoTopology is cmd/eona-lg's 4-link demo network.
func demoTopology() *netsim.Topology {
	topo := netsim.NewTopology()
	topo.AddLink("clients", "isp-a", 100e6, 5*time.Millisecond, "access")
	topo.AddLink("isp-a", "cdnX", 100e6, 10*time.Millisecond, "peering-B")
	topo.AddLink("isp-a", "cdnX", 400e6, 12*time.Millisecond, "peering-C")
	topo.AddLink("isp-a", "cdnY", 80e6, 15*time.Millisecond, "transit-Y")
	return topo
}

const demoFlows = 12

// seedDemoFlows is cmd/eona-lg's 12 demo sessions over the three egresses.
func seedDemoFlows(shared *netsim.SharedNetwork, topo *netsim.Topology) {
	links := topo.Links()
	for i := 0; i < demoFlows; i++ {
		path := netsim.Path{links[0], links[1+i%3]}
		shared.StartFlow(path, float64(2+i%4)*1e6, fmt.Sprintf("sess-%02d", i))
	}
	shared.Commit()
}

const (
	churnRegions = 8
	churnAccess  = 8 // access links per region, each feeding the region's aggregation link
)

// churnTopology is 8 disjoint regions of 8 access links (200 Mb/s) into one
// aggregation link (1 Gb/s): 72 links, 64 two-hop paths. Disjoint regions keep
// the allocator's components small, as a real access network's are.
func churnTopology() (*netsim.Topology, []netsim.Path) {
	topo := netsim.NewTopology()
	var paths []netsim.Path
	for r := 0; r < churnRegions; r++ {
		agg := netsim.NodeID(fmt.Sprintf("r%d-agg", r))
		core := netsim.NodeID(fmt.Sprintf("r%d-core", r))
		up := topo.AddLink(agg, core, 1e9, 2*time.Millisecond, fmt.Sprintf("r%d-up", r))
		for a := 0; a < churnAccess; a++ {
			home := netsim.NodeID(fmt.Sprintf("r%d-a%d", r, a))
			l := topo.AddLink(home, agg, 200e6, time.Millisecond, fmt.Sprintf("r%d-a%d", r, a))
			paths = append(paths, netsim.Path{l, up})
		}
	}
	return topo, paths
}

// churn drives one seeded sequence of mutation windows. Two churns with the
// same seed issue the identical sequence whatever network they drive, which
// is how the un-journaled replay isolates the allocator's share of a window.
type churn struct {
	rng   *rand.Rand
	paths []netsim.Path
	live  []*netsim.Flow
	next  int
}

func (c *churn) demand() float64 { return float64(1+c.rng.Intn(16)) * 0.5e6 }

func (c *churn) start(net *netsim.SharedNetwork) *netsim.Flow {
	c.next++
	return net.StartFlow(c.paths[c.rng.Intn(len(c.paths))], c.demand(), fmt.Sprintf("f%d", c.next))
}

// newChurn preloads the network with the seeded flow set.
func newChurn(seed int64, net *netsim.SharedNetwork, paths []netsim.Path) *churn {
	c := &churn{rng: rand.New(rand.NewSource(seed)), paths: paths}
	for i := 0; i < churnFlows; i++ {
		c.live = append(c.live, c.start(net))
	}
	net.Commit()
	return c
}

// window is the primary op of net-churn: two flow replacements and one demand
// change, then the Commit fence, then one read of the published snapshot.
func (c *churn) window(net *netsim.SharedNetwork) float64 {
	for i := 0; i < 2; i++ {
		k := c.rng.Intn(len(c.live))
		net.StopFlow(c.live[k])
		c.live[k] = c.start(net)
	}
	f := c.live[c.rng.Intn(len(c.live))]
	// Setters no-op on an unchanged value, so always move the demand.
	net.SetDemand(f, f.Demand+0.25e6)
	net.Commit()
	return net.Snapshot().LinkRate(c.paths[0][1].ID)
}
