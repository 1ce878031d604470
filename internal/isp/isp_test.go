package isp

import (
	"math"
	"slices"
	"testing"
	"time"

	"eona/internal/netsim"
)

// fixture builds the Figure 5 topology:
//
//	clients --access--> border --B--> cdnX
//	                    border --C--> ixp --> cdnX
//	                                  ixp --> cdnY
func fixture(t testing.TB) (*netsim.Network, *ISP, *netsim.Link, *netsim.Link) {
	t.Helper()
	topo := netsim.NewTopology()
	access := topo.AddLink("clients", "border", 1000e6, 2*time.Millisecond, "access")
	linkB := topo.AddLink("border", "cdnX", 100e6, 1*time.Millisecond, "peering-B")
	linkC := topo.AddLink("border", "ixp", 500e6, 3*time.Millisecond, "peering-C")
	topo.AddLink("ixp", "cdnX", 400e6, 1*time.Millisecond, "ixp-cdnX")
	topo.AddLink("ixp", "cdnY", 400e6, 1*time.Millisecond, "ixp-cdnY")
	net := netsim.NewNetwork(topo)
	i := New(net, Config{Name: "isp1", ClientNode: "clients", Border: "border", Access: access})
	i.AddPeering("B", linkB, "cdnX")
	i.AddPeering("C", linkC, "cdnX", "cdnY")
	return net, i, linkB, linkC
}

func TestNewValidatesAccessLink(t *testing.T) {
	topo := netsim.NewTopology()
	wrong := topo.AddLink("a", "b", 1, 0, "")
	net := netsim.NewNetwork(topo)
	defer func() {
		if recover() == nil {
			t.Error("mismatched access link did not panic")
		}
	}()
	New(net, Config{ClientNode: "x", Border: "y", Access: wrong})
}

func TestAddPeeringValidatesBorder(t *testing.T) {
	net, i, _, _ := fixture(t)
	bad := net.Topology().AddLink("ixp", "cdnZ", 1, 0, "")
	defer func() {
		if recover() == nil {
			t.Error("peering not at border did not panic")
		}
	}()
	i.AddPeering("bad", bad, "cdnZ")
}

func TestDefaultEgressIsFirstReaching(t *testing.T) {
	_, i, _, _ := fixture(t)
	if eg := i.EgressOf("cdnX"); eg == nil || eg.ID != "B" {
		t.Errorf("default egress for cdnX = %v, want B", eg)
	}
	if eg := i.EgressOf("cdnY"); eg == nil || eg.ID != "C" {
		t.Errorf("default egress for cdnY = %v, want C", eg)
	}
	if eg := i.EgressOf("cdnZ"); eg != nil {
		t.Errorf("egress for unknown CDN = %v, want nil", eg)
	}
}

func TestPathToFollowsEgress(t *testing.T) {
	_, i, _, _ := fixture(t)
	p, err := i.PathTo("cdnX", "cdnX")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "clients->border->cdnX" {
		t.Errorf("path via B = %v", p)
	}
	if err := i.SetEgress("cdnX", "C"); err != nil {
		t.Fatal(err)
	}
	p, err = i.PathTo("cdnX", "cdnX")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "clients->border->ixp->cdnX" {
		t.Errorf("path via C = %v", p)
	}
}

func TestPathToErrors(t *testing.T) {
	_, i, _, _ := fixture(t)
	if _, err := i.PathTo("cdnZ", "cdnZ"); err == nil {
		t.Error("unreachable CDN should error")
	}
	if _, err := i.PathTo("cdnX", "nonexistent"); err == nil {
		t.Error("unknown destination should error")
	}
}

func TestConnectAndTrafficVia(t *testing.T) {
	_, i, linkB, linkC := fixture(t)
	f, err := i.Connect("cdnX", "cdnX", 50e6, "s1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Rate-50e6) > 1 {
		t.Errorf("rate = %v, want 50e6", f.Rate)
	}
	if !slices.Contains(f.Path, linkB) || slices.Contains(f.Path, linkC) {
		t.Errorf("path = %v, want via peering B only", f.Path)
	}
	i.Disconnect(f)
	if f.Rate != 0 {
		t.Errorf("rate after disconnect = %v, want 0", f.Rate)
	}
	i.Disconnect(nil)
}

func TestSetEgressReroutesLiveFlows(t *testing.T) {
	net, i, linkB, linkC := fixture(t)
	f1, _ := i.Connect("cdnX", "cdnX", 40e6, "")
	f2, _ := i.Connect("cdnX", "cdnX", 30e6, "")
	if net.LinkRate(linkB.ID) != 70e6 {
		t.Fatalf("pre-TE rate on B = %v", net.LinkRate(linkB.ID))
	}
	if err := i.SetEgress("cdnX", "C"); err != nil {
		t.Fatal(err)
	}
	if net.LinkRate(linkB.ID) != 0 {
		t.Errorf("B still carries %v after TE", net.LinkRate(linkB.ID))
	}
	if got := net.LinkRate(linkC.ID); math.Abs(got-70e6) > 1 {
		t.Errorf("C carries %v, want 70e6", got)
	}
	if i.EgressChanges != 1 {
		t.Errorf("EgressChanges = %d, want 1", i.EgressChanges)
	}
	_ = f1
	_ = f2
}

func TestSetEgressNoopAndErrors(t *testing.T) {
	_, i, _, _ := fixture(t)
	i.EgressOf("cdnX") // default B
	if err := i.SetEgress("cdnX", "B"); err != nil {
		t.Fatal(err)
	}
	if i.EgressChanges != 0 {
		t.Error("no-op egress set counted as a change")
	}
	if err := i.SetEgress("cdnX", "missing"); err == nil {
		t.Error("unknown peering accepted")
	}
	if err := i.SetEgress("cdnY", "B"); err == nil {
		t.Error("peering that does not reach CDN accepted")
	}
}

func TestRetarget(t *testing.T) {
	net, i, linkB, _ := fixture(t)
	f, _ := i.Connect("cdnX", "cdnX", 40e6, "")
	if err := i.Retarget(f, "cdnY", "cdnY"); err != nil {
		t.Fatal(err)
	}
	if net.LinkRate(linkB.ID) != 0 {
		t.Error("flow still on B after retarget to cdnY")
	}
	// Egress change for cdnX no longer moves this flow.
	if err := i.SetEgress("cdnX", "C"); err != nil {
		t.Fatal(err)
	}
	p, _ := i.PathTo("cdnY", "cdnY")
	if f.Path.String() != p.String() {
		t.Errorf("retargeted flow path = %v, want %v", f.Path, p)
	}
	other := net.StartFlow(netsim.Path{}, 1, "")
	if err := i.Retarget(other, "cdnX", "cdnX"); err == nil {
		t.Error("retargeting unregistered flow should error")
	}
}

func TestReports(t *testing.T) {
	_, i, _, _ := fixture(t)
	// Saturate peering B (capacity 100e6).
	i.Connect("cdnX", "cdnX", 99e6, "")
	ar := i.AccessReport()
	if ar.Congestion != netsim.CongestionNone {
		t.Errorf("access congestion = %v, want none", ar.Congestion)
	}
	if ar.CapacityBps != 1000e6 {
		t.Errorf("access capacity = %v", ar.CapacityBps)
	}
	prs := i.PeeringReports()
	if len(prs) != 2 {
		t.Fatalf("reports = %d, want 2", len(prs))
	}
	if prs[0].PeeringID != "B" || prs[0].Congestion != netsim.CongestionSevere {
		t.Errorf("B report = %+v, want severe congestion", prs[0])
	}
	if prs[1].PeeringID != "C" || prs[1].Congestion != netsim.CongestionNone {
		t.Errorf("C report = %+v, want no congestion", prs[1])
	}
	if math.Abs(prs[0].HeadroomBps-1e6) > 1 {
		t.Errorf("B headroom = %v, want 1e6", prs[0].HeadroomBps)
	}
}

// A TE change re-paths every registered flow for the CDN in one batched
// reallocation, not one per flow.
func TestSetEgressBatchesReallocation(t *testing.T) {
	net, i, _, linkC := fixture(t)
	var flows []*netsim.Flow
	net.Batch(func() {
		for k := 0; k < 20; k++ {
			f, err := i.Connect("cdnX", "cdnX", math.Inf(1), "s")
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			flows = append(flows, f)
		}
	})
	before := net.Stats().Reallocations
	if err := i.SetEgress("cdnX", "C"); err != nil {
		t.Fatalf("SetEgress: %v", err)
	}
	if got := net.Stats().Reallocations - before; got != 1 {
		t.Errorf("SetEgress over 20 flows cost %d reallocations, want 1", got)
	}
	for _, f := range flows {
		onC := false
		for _, l := range f.Path {
			if l == linkC {
				onC = true
			}
		}
		if !onC {
			t.Fatalf("flow %d not re-pathed via C", f.ID)
		}
	}
}
