package lookingglass

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"eona/internal/core"
	"eona/internal/netsim"
)

// sharedISP builds a small InfP view: an access link plus two peering
// links, with greedy flows saturating peering B, wrapped in a
// SharedNetwork so the I2A surfaces can be served lock-free.
func sharedISP() (*netsim.SharedNetwork, []netsim.LinkID) {
	topo := netsim.NewTopology()
	access := topo.AddLink("clients", "border", 100e6, 2*time.Millisecond, "access")
	peerB := topo.AddLink("border", "cdnX", 50e6, time.Millisecond, "peering-B")
	peerC := topo.AddLink("border", "cdnY", 200e6, time.Millisecond, "peering-C")
	n := netsim.NewNetwork(topo)
	n.Batch(func() {
		for k := 0; k < 4; k++ {
			n.StartFlow(netsim.Path{access, peerB}, math.Inf(1), "cdnX")
		}
		n.StartFlow(netsim.Path{access, peerC}, 10e6, "cdnY")
	})
	s := netsim.NewShared(n, netsim.SharedConfig{})
	return s, []netsim.LinkID{access.ID, peerB.ID, peerC.ID}
}

// snapshotSources serves the I2A surfaces straight off the shared
// network's latest snapshot — the Server never touches the live Network,
// so request handling cannot race the writer.
func snapshotSources(s *netsim.SharedNetwork, access, peerB, peerC netsim.LinkID) Sources {
	peering := func(sn *netsim.Snapshot, id netsim.LinkID, name, cdn string, current bool) core.PeeringInfo {
		return core.PeeringInfo{
			PeeringID:   name,
			CDN:         cdn,
			Congestion:  sn.Congestion(id),
			HeadroomBps: sn.Headroom(id),
			CapacityBps: sn.Capacity(id),
			Current:     current,
		}
	}
	return Sources{
		PeeringInfo: func(cdn string) []core.PeeringInfo {
			sn := s.Snapshot()
			all := []core.PeeringInfo{
				peering(sn, peerB, "peering-B", "cdnX", true),
				peering(sn, peerC, "peering-C", "cdnY", false),
			}
			if cdn == "" {
				return all
			}
			var out []core.PeeringInfo
			for _, p := range all {
				if p.CDN == cdn {
					out = append(out, p)
				}
			}
			return out
		},
		Attribution: func(cdn string) (core.Attribution, bool) {
			sn := s.Snapshot()
			return core.Attribution{
				CDN:     cdn,
				Segment: core.SegmentAccess,
				Level:   sn.Congestion(access),
			}, true
		},
	}
}

// TestServerFromSharedSnapshotUnderChurn is the I2A wiring pin for the
// shared network: a lookingglass Server answers peering/attribution
// queries from published snapshots while a Poller and direct snapshot
// readers run concurrently with capacity churn — all under -race — and a
// mid-poll SetLinkCapacity is observed by the poller within a few
// intervals.
func TestServerFromSharedSnapshotUnderChurn(t *testing.T) {
	shared, ids := sharedISP()
	defer shared.Close()
	access, peerB, peerC := ids[0], ids[1], ids[2]

	ts, _ := newTestServer(t, nil, snapshotSources(shared, access, peerB, peerC))
	client := NewClient(ts.URL, "tok-full", ts.Client())

	// Saturated 50e6 peering under four greedy flows: severe congestion.
	pre, err := client.PeeringInfo(context.Background(), "cdnX")
	if err != nil {
		t.Fatal(err)
	}
	if len(pre) != 1 || pre[0].Congestion != netsim.CongestionSevere || pre[0].CapacityBps != 50e6 {
		t.Fatalf("pre-churn peering = %+v", pre)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, done := PollWith(ctx, 2*time.Millisecond,
		func(ctx context.Context) ([]core.PeeringInfo, error) {
			return client.PeeringInfo(ctx, "cdnX")
		})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Direct snapshot readers, racing the poller and the writer.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := shared.Snapshot()
				_ = sn.Congestion(peerB)
				_ = sn.Headroom(peerC)
				_ = sn.Utilization(access)
			}
		}(g)
	}
	// Writer: capacity churn on the uncongested peering while the poller
	// watches the congested one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			shared.SetLinkCapacity(peerC, 150e6+1e6*float64(i%10))
		}
	}()

	// Mid-poll capacity upgrade of peering B: 50e6 → 500e6 drops its
	// congestion below severe (flows are capped by the 100e6 access link).
	time.Sleep(10 * time.Millisecond)
	shared.SetLinkCapacity(peerB, 500e6)

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _, ok := snap.Get(); ok && len(v) == 1 &&
			v[0].CapacityBps == 500e6 && v[0].Congestion != netsim.CongestionSevere {
			break
		}
		if time.Now().After(deadline) {
			v, _, ok := snap.Get()
			t.Fatalf("poller never observed the capacity change: %+v ok=%v", v, ok)
		}
		time.Sleep(time.Millisecond)
	}

	close(stop)
	wg.Wait()
	cancel()
	<-done

	// Attribution answers from the same snapshot plane.
	att, err := client.Attribution(context.Background(), "cdnX")
	if err != nil {
		t.Fatal(err)
	}
	if want := shared.Snapshot().Congestion(access); att.Level != want {
		t.Errorf("attribution level %v != snapshot congestion %v", att.Level, want)
	}
	if h := snap.Health(time.Now()); h.Successes == 0 {
		t.Errorf("poller health recorded no successes: %+v", h)
	}
}
