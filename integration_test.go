package eona_test

// Full-stack integration: the Figure 5 decision cycle with the interface
// data flowing over REAL loopback HTTP through the looking-glass servers —
// collector → A2I server → client → InfP policy, and ISP state → I2A
// server → client → AppP policy — rather than through in-process views.
// This is the composition a production deployment would run; the simulated
// network only stands in for the data plane.

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"eona"
	"eona/internal/control"
	"eona/internal/core"
	"eona/internal/isp"
	"eona/internal/netsim"
)

func TestFullStackFigure5OverHTTP(t *testing.T) {
	// --- Simulated data plane: the Figure 5 topology. ---
	topo := netsim.NewTopology()
	access := topo.AddLink("clients", "border", 1e9, 2*time.Millisecond, "access")
	linkB := topo.AddLink("border", "cdnX", 100e6, time.Millisecond, "peering-B")
	linkC := topo.AddLink("border", "ixp", 400e6, 3*time.Millisecond, "peering-C")
	topo.AddLink("ixp", "cdnX", 400e6, time.Millisecond, "ixp-cdnX")
	topo.AddLink("ixp", "cdnY", 80e6, time.Millisecond, "ixp-cdnY")
	net := netsim.NewNetwork(topo)
	net.SetMaxRate(10e9)
	ispNet := isp.New(net, isp.Config{Name: "isp1", ClientNode: "clients", Border: "border", Access: access})
	ispNet.AddPeering("B", linkB, "cdnX")
	ispNet.AddPeering("C", linkC, "cdnX", "cdnY")

	const demand = 150e6
	currentCDN := "cdnX"
	flow, err := ispNet.Connect(currentCDN, "cdnX", demand, "appp")
	if err != nil {
		t.Fatal(err)
	}

	// --- AppP looking glass: exports the traffic estimate over HTTP. ---
	apppAuth := eona.NewAuthStore()
	apppAuth.Register("isp-token", "isp1", eona.ScopeA2ITraffic)
	apppSrv := eona.NewServer(apppAuth, nil, eona.Sources{
		TrafficEstimates: func() []eona.TrafficEstimate {
			return []eona.TrafficEstimate{{AppP: "vod", CDN: currentCDN, VolumeBps: demand, Sessions: demand / 3e6}}
		},
	})
	apppTS := httptest.NewServer(apppSrv.Handler())
	defer apppTS.Close()

	// --- InfP looking glass: exports peering state over HTTP. ---
	infpAuth := eona.NewAuthStore()
	infpAuth.Register("appp-token", "vod", eona.ScopeI2APeering, eona.ScopeI2AAttrib)
	infpSrv := eona.NewServer(infpAuth, nil, eona.Sources{
		PeeringInfo: func(cdnName string) []eona.PeeringInfo {
			var out []eona.PeeringInfo
			for _, r := range ispNet.PeeringReports() {
				p := ispNet.Peering(r.PeeringID)
				for _, cn := range []string{"cdnX", "cdnY"} {
					if !p.Reaches(cn) || (cdnName != "" && cn != cdnName) {
						continue
					}
					out = append(out, eona.PeeringInfo{
						PeeringID: r.PeeringID, CDN: cn,
						Congestion:  r.Congestion,
						HeadroomBps: r.HeadroomBps, CapacityBps: r.CapacityBps,
						Current: ispNet.EgressOf(cn).ID == r.PeeringID,
					})
				}
			}
			return out
		},
		Attribution: func(cdnName string) (eona.Attribution, bool) {
			eg := ispNet.EgressOf(cdnName)
			if eg == nil {
				return eona.Attribution{}, false
			}
			att := eona.Attribution{CDN: cdnName, Segment: eona.SegmentNone}
			for _, r := range ispNet.PeeringReports() {
				if r.PeeringID == eg.ID && r.Utilization >= 0.9 {
					att.Segment = eona.SegmentPeering
					att.Level = r.Congestion
				}
			}
			return att, true
		},
	})
	infpTS := httptest.NewServer(infpSrv.Handler())
	defer infpTS.Close()

	ispClient := eona.NewClient(apppTS.URL, "isp-token")
	apppClient := eona.NewClient(infpTS.URL, "appp-token")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Precondition: default egress B is saturated by the 150 Mbps flow.
	if got := net.Congestion(linkB.ID); got != netsim.CongestionSevere {
		t.Fatalf("precondition: peering B congestion = %v, want severe", got)
	}

	infPolicy := &eona.EONAInfP{Margin: 0.1, HighWater: 0.9}
	appPolicy := &eona.EONAAppP{Threshold: 60}

	// Run three control epochs; every observation crosses HTTP.
	for epoch := 0; epoch < 3; epoch++ {
		// InfP epoch: fetch A2I over the wire, decide, actuate.
		traffic, err := ispClient.TrafficEstimates(ctx)
		if err != nil {
			t.Fatalf("epoch %d: InfP fetching A2I: %v", epoch, err)
		}
		infObs := control.InfPObs{
			Peerings: ispNet.PeeringReports(),
			Egress: map[string]string{
				"cdnX": ispNet.EgressOf("cdnX").ID,
				"cdnY": ispNet.EgressOf("cdnY").ID,
			},
			Reach: map[string][]string{"cdnX": {"B", "C"}, "cdnY": {"C"}},
			A2I:   &control.A2IView{Traffic: traffic},
		}
		for cdnName, want := range infPolicy.Decide(infObs).Egress {
			if want != ispNet.EgressOf(cdnName).ID {
				if err := ispNet.SetEgress(cdnName, want); err != nil {
					t.Fatalf("epoch %d: SetEgress: %v", epoch, err)
				}
			}
		}

		// AppP epoch: fetch I2A over the wire, decide.
		peering, err := apppClient.PeeringInfo(ctx, "")
		if err != nil {
			t.Fatalf("epoch %d: AppP fetching I2A: %v", epoch, err)
		}
		att, err := apppClient.Attribution(ctx, currentCDN)
		if err != nil {
			t.Fatalf("epoch %d: AppP fetching attribution: %v", epoch, err)
		}
		score := 100 * flow.Rate / demand // crude per-epoch QoE proxy
		appObs := control.AppPObs{
			Current: currentCDN, Score: score, DemandBps: demand,
			CDNs: []control.CDNStat{
				{Name: "cdnX", Score: score, ServingCapacityBps: 400e6},
				{Name: "cdnY", Score: 70, ServingCapacityBps: 80e6},
			},
			I2A: &control.I2AView{
				Peering:     peering,
				Attribution: map[string]core.Attribution{currentCDN: att},
			},
		}
		dec := appPolicy.Decide(appObs)
		if dec.CDN != currentCDN {
			currentCDN = dec.CDN
			if err := ispNet.Retarget(flow, currentCDN, netsim.NodeID(currentCDN)); err != nil {
				t.Fatalf("epoch %d: retarget: %v", epoch, err)
			}
		}
	}

	// Converged to the paper's green path: CDN X via peering C, full rate.
	if currentCDN != "cdnX" {
		t.Errorf("final CDN = %s, want cdnX (AppP should not have fled)", currentCDN)
	}
	if got := ispNet.EgressOf("cdnX").ID; got != "C" {
		t.Errorf("final egress = %s, want C", got)
	}
	if flow.Rate < demand*0.999 {
		t.Errorf("final delivered rate = %v, want full %v", flow.Rate, float64(demand))
	}
	if got := net.Congestion(linkB.ID); got != netsim.CongestionNone {
		t.Errorf("peering B still congested: %v", got)
	}
	if ispNet.EgressChanges != 1 {
		t.Errorf("egress changes = %d, want exactly 1 (no churn)", ispNet.EgressChanges)
	}
}
