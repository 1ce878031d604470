package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"eona/internal/journal"
	"eona/internal/netsim"
)

// churnNode starts a node over the 72-link topology with the seed's 1 000
// flows started through the journaled network.
type churnNode struct {
	*node
	churn *churn
}

func newChurnNode(seed int64, tr *tracer) (churnNode, error) {
	topo, paths := churnTopology()
	n, err := startNode(topo, tr)
	if err != nil {
		return churnNode{}, err
	}
	return churnNode{n, newChurn(seed, n.shared, paths)}, nil
}

// operator is net-churn's second generator: an open loop of 50 GET /v1/links
// per second, and every 2 s a link throttle injected and restored over the
// only HTTP write route. Requests are timed from the instant they were due.
type operator struct {
	c        *client
	rng      *rand.Rand
	links    []*netsim.Link
	get      latencies // GET /v1/links, from due time
	impair   latencies // POST /v1/impairments → 201
	snapRead []float64 // ns per Snapshot().LinkRate read, under publish
	attempts int64
	failed   int64
}

const (
	operatorTick   = 20 * time.Millisecond // 50 GETs/s
	impairEvery    = 100                   // ticks: one throttle + restore every 2 s
	snapshotProbes = 4096
)

func (o *operator) run(stop func() bool) {
	t0 := time.Now()
	for k := 1; ; k++ {
		due := t0.Add(time.Duration(k) * operatorTick)
		time.Sleep(time.Until(due))
		if stop() {
			return
		}
		ok, _ := get(o.c, "/v1/links")
		o.get.record(due)
		o.count(ok)

		start := time.Now()
		var sink float64
		for i := 0; i < snapshotProbes; i++ {
			sink += o.c.n.shared.Snapshot().LinkRate(o.links[i%len(o.links)].ID)
		}
		o.snapRead = append(o.snapRead, float64(time.Since(start))/snapshotProbes)
		_ = sink

		if k%impairEvery == 0 {
			o.throttle()
		}
	}
}

func (o *operator) count(ok bool) {
	o.attempts++
	if !ok {
		o.failed++
	}
}

// throttle halves a seeded link's capacity, then restores it.
func (o *operator) throttle() {
	link := o.links[o.rng.Intn(len(o.links))].Name
	start := time.Now()
	status, body, err := o.c.do("POST", "/v1/impairments", []byte(fmt.Sprintf(`{"kind":"link-throttle","link":%q,"factor":0.5}`, link)))
	o.impair.record(start)
	var imp struct {
		ID int `json:"id"`
	}
	ok := err == nil && status == 201 && json.Unmarshal(body, &imp) == nil && imp.ID > 0
	o.count(ok)
	if !ok {
		return
	}
	status, _, err = o.c.do("DELETE", fmt.Sprintf("/v1/impairments?id=%d", imp.ID), nil)
	o.count(err == nil && status == 200)
}

// runNetChurn is the net-churn workload: closed-loop mutation windows on the
// journaled SharedNetwork beside an operator on the HTTP surface, then
// recovery and materialization of the journal just written.
func runNetChurn(cfg runConfig) (*result, error) {
	res := newResult("net-churn")
	cn, setup, err := setUp(cfg, func() (churnNode, error) { return newChurnNode(cfg.seed, cfg.tr) },
		func(cn churnNode) { discardNode(cn.node) })
	if err != nil {
		return nil, err
	}
	n := cn.node
	defer n.remove()

	var lat latencies
	windows := func(stop func() bool) {
		for !stop() {
			start := time.Now()
			sp := n.tr.begin("netsim.window", 0, 0)
			n.window.Store(sp.id)
			cn.churn.window(n.shared)
			sp.end()
			lat.record(start)
		}
	}
	op := &operator{c: n.newClient(0), rng: rand.New(rand.NewSource(cfg.seed + 1)), links: n.topo.Links()}
	warmUp(cfg.seconds, windows)
	lat.take()
	stats0 := n.shared.Stats()
	var getP50, impairP50, snapP50 float64
	st := timedPhase(cfg.seconds, func() []sample {
		getP50, impairP50, snapP50 = median(lats(op.get.take())), median(lats(op.impair.take())), median(op.snapRead)
		op.snapRead = nil
		return lat.take()
	}, windows, op.run)
	res.setPhase(cfg.seconds, setup, st)
	op.c.close()
	res.attempted += st.ops + op.attempts
	res.failed += op.failed
	res.check(n.shared.NumFlows() == churnFlows, "%d flows live, want %d", n.shared.NumFlows(), churnFlows)

	if cfg.tr != nil {
		l, stats := res.layer, n.shared.Stats()
		w := float64(st.ops)
		l["netsim.journaled_window_us"] = n.tr.medianUs("netsim.window")
		l["projection.append_op_us"] = n.tr.medianUs("projection.append_op")
		l["netsim.flows_recomputed_per_window"] = float64(stats.FlowsRecomputed-stats0.FlowsRecomputed) / w
		l["netsim.incremental_ratio"] = float64(stats.IncrementalReallocations-stats0.IncrementalReallocations) /
			float64(stats.Reallocations-stats0.Reallocations)
		l["netsim.registry_rebuilds"] = float64(stats.RegistryRebuilds - stats0.RegistryRebuilds)
		l["netsim.snapshot_read_ns"] = snapP50
		l["ctlplane.links_under_churn_us"] = getP50 / 1e3
		l["ctlplane.impair_ms"] = impairP50 / 1e6
	}

	// The final live state recovery must reproduce.
	n.shared.Commit()
	final := n.shared.Snapshot()
	err = n.stop()
	res.check(err == nil, "node shut down clean (JournalError, Engine.Err): %v", err)

	start := time.Now()
	rec, err := journal.Recover(n.dir)
	recovered := time.Since(start)
	res.check(err == nil, "journal.Recover: %v", err)
	if err != nil {
		return res, nil
	}
	start = time.Now()
	net, _, err := rec.MaterializeAt(len(rec.Ops))
	materialized := time.Since(start)
	res.check(err == nil, "MaterializeAt(%d) digest-verifies: %v", len(rec.Ops), err)
	if err == nil {
		same := true
		for _, link := range n.topo.Links() {
			same = same && net.LinkRate(link.ID) == final.LinkRate(link.ID)
		}
		res.check(same, "materialized link rates equal the final live snapshot")
	}
	if cfg.tr != nil {
		res.layer["journal.recover_net_us_per_rec"] = us(recovered) / float64(len(rec.Stream))
		res.layer["journal.materialize_ms"] = us(materialized) / 1e3
		res.layer["recover.network_us_per_rec"] = us(recovered+materialized) / float64(len(rec.Stream))
		netChurnLayers(res, cfg, n, rec)
	}
	return res, nil
}

// netChurnLayers isolates the layers under a window: the same seeded window
// sequence on an un-journaled network is the allocator + publish share, the
// recovered ops and snapshots replayed into a bare writer are the journal's
// share, and a serial replay prices one op on the bare allocator.
func netChurnLayers(res *result, cfg runConfig, n *node, rec *journal.Recovered) {
	l := res.layer
	// Every window the node ran, warm-up included, so the replay below issues
	// the identical sequence.
	windows := len(n.tr.durationsUs("netsim.window", false))

	topo, paths := churnTopology()
	bare := netsim.NewShared(netsim.NewNetwork(topo), netsim.SharedConfig{})
	c := newChurn(cfg.seed, bare, paths)
	var win latencies
	for i := 0; i < windows; i++ {
		start := time.Now()
		c.window(bare)
		win.record(start)
	}
	inner := bare.Close()
	l["netsim.window_us"] = median(lats(win.take())) / 1e3
	// A journaled network also fingerprints its state for every op it hands
	// the sink and exports it for every snapshot; neither happens without a
	// journal, and neither is inside the sink's spans.
	l["netsim.state_digest_us"] = medianCallUs(200, func() { inner.StateDigest() })
	l["netsim.export_state_us"] = medianCallUs(50, func() { inner.ExportState() })

	w, _, err := scratchJournal(n, "replay-ops")
	res.check(err == nil, "scratch journal: %v", err)
	if err == nil {
		l["journal.append_op_us"] = meanCallUs(len(rec.Ops), func(i int) { w.AppendOp(rec.Ops[i].Op, rec.Ops[i].Digest) })
		res.check(w.Close() == nil, "scratch op journal closes clean")
	}
	w, dir, err := scratchJournal(n, "replay-snaps")
	res.check(err == nil && len(rec.Snapshots) > 0, "scratch journal: %v; %d snapshots recovered", err, len(rec.Snapshots))
	if err == nil && len(rec.Snapshots) > 0 {
		l["journal.append_snapshot_us"] = meanCallUs(len(rec.Snapshots), func(i int) {
			w.AppendSnapshot(rec.Snapshots[i].State, rec.Snapshots[i].Digest)
		})
		res.check(w.Close() == nil, "scratch snapshot journal closes clean")
		l["journal.snapshot_bytes"] = float64(dirBytes(dir)) / float64(len(rec.Snapshots))
	}

	start := time.Now()
	_, err = rec.ReplayPrefix(len(rec.Ops))
	res.check(err == nil, "ReplayPrefix: %v", err)
	l["netsim.replay_op_us"] = us(time.Since(start)) / float64(len(rec.Ops))

	// Do the layers account for the window? Allocator + publish, the digest
	// per op and the export per snapshot, plus the time per window spent in
	// the journal sink (journal append and fold), over the journaled window.
	sink := 0.0
	for _, d := range n.tr.durationsUs("projection.append_", false) {
		sink += d
	}
	l["projection.sink_us_per_window"] = sink / float64(windows)
	const opsPerWindow, snapshotEvery = 5, 32
	l["bench.netchurn_layers_over_window"] = (l["netsim.window_us"] + l["projection.sink_us_per_window"] +
		opsPerWindow*l["netsim.state_digest_us"] +
		opsPerWindow/float64(snapshotEvery)*(l["netsim.export_state_us"]+l["netsim.state_digest_us"])) /
		l["netsim.journaled_window_us"]
}
