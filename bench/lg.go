package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"eona/internal/core"
	"eona/internal/journal"
	"eona/internal/wire"
)

// runConfig is one workload pass.
type runConfig struct {
	seed    int64
	seconds float64
	setups  int     // times set-up is repeated; setup_s is their median
	tr      *tracer // nil: untraced
}

// lgNode starts a looking-glass node in the workloads' start state: the demo
// network with its 12 flows, and the seed's 20 000 session records ingested
// through the engine (so they are journaled and checkpointed).
func lgNode(recs []core.QoERecord, tr *tracer) (*node, error) {
	topo := demoTopology()
	n, err := startNode(topo, tr)
	if err != nil {
		return nil, err
	}
	seedDemoFlows(n.shared, topo)
	for _, rec := range recs {
		if err := n.eng.AppendIngest(rec); err != nil {
			n.stop()
			n.remove()
			return nil, err
		}
	}
	return n, nil
}

// setUp builds the workload's start state cfg.setups times, timing each, and
// keeps the last one.
func setUp[T any](cfg runConfig, build func() (T, error), discard func(T)) (last T, times []float64, err error) {
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			discard(last)
		}
		start := time.Now()
		if last, err = build(); err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return last, times, nil
}

func discardNode(n *node) {
	n.stop()
	n.remove()
}

// lgRoutes is the lg-read mix: the two A2I exports a peer polls and the three
// inspection routes the dashboard polls.
var lgRoutes = []string{"/v1/a2i/summaries", "/v1/a2i/traffic", "/v1/links", "/v1/flows", "/v1/stats"}

// get issues one GET and checks the response the way its consumer would:
// 2xx, the A2I envelope decodes via wire.Decode and carries every group, the
// inspection documents carry the node's links and flows. It reports whether
// the response was correct and, for summaries, the body size.
func get(c *client, route string) (ok bool, bytes int) {
	status, body, err := c.do("GET", route, nil)
	if err != nil || status/100 != 2 {
		return false, 0
	}
	switch route {
	case "/v1/a2i/summaries":
		env, err := wire.Decode(body)
		if err != nil {
			return false, 0
		}
		sums, err := wire.DecodePayload[[]core.QoESummary](env, wire.TypeQoESummaries)
		return err == nil && len(sums) == groups, len(body)
	case "/v1/a2i/traffic":
		env, err := wire.Decode(body)
		if err != nil {
			return false, 0
		}
		ests, err := wire.DecodePayload[[]core.TrafficEstimate](env, wire.TypeTrafficEstimates)
		return err == nil && len(ests) == cdns, 0
	case "/v1/links":
		var doc struct {
			Links []struct {
				Name string `json:"name"`
			} `json:"links"`
		}
		return json.Unmarshal(body, &doc) == nil && len(doc.Links) == c.n.topo.NumLinks(), 0
	case "/v1/flows":
		var doc struct {
			Count int `json:"count"`
		}
		return json.Unmarshal(body, &doc) == nil && doc.Count == demoFlows, 0
	case "/v1/stats":
		var doc struct {
			Flows      int `json:"flows"`
			ReadModels struct {
				Groups int `json:"qoe_groups"`
			} `json:"read_models"`
		}
		return json.Unmarshal(body, &doc) == nil && doc.Flows == demoFlows && doc.ReadModels.Groups == groups, 0
	}
	return false, 0
}

// getLoop is a closed-loop client: the next GET goes out when the previous
// one has been read and checked. One op is perOp consecutive GETs of the
// round-robin over routes.
type getLoop struct {
	c        *client
	routes   []string
	perOp    int
	lat      latencies
	gets     int64
	failed   int64
	sumBytes int
}

func (g *getLoop) run(offset int) func(stop func() bool) {
	return func(stop func() bool) {
		for i := offset; !stop(); {
			start := time.Now()
			for j := 0; j < g.perOp; j, i = j+1, i+1 {
				ok, n := get(g.c, g.routes[i%len(g.routes)])
				g.gets++
				if !ok {
					g.failed++
				}
				if n > 0 {
					g.sumBytes = n
				}
			}
			g.lat.record(start)
		}
	}
}

// warmUp lets connections open and lazy set-up finish before timing.
func warmUp(seconds float64, generators ...func(stop func() bool)) {
	timedPhase(min(0.5, seconds/10), nil, generators...)
}

// runLGRead is the lg-read workload: two closed-loop clients over a static
// node, no writes.
func runLGRead(cfg runConfig) (*result, error) {
	res := newResult("lg-read")
	recs := genRecords(cfg.seed, preloadN)
	n, setup, err := setUp(cfg, func() (*node, error) { return lgNode(recs, cfg.tr) }, discardNode)
	if err != nil {
		return nil, err
	}
	defer n.remove()

	loops := make([]*getLoop, generators())
	var gens []func(stop func() bool)
	for i := range loops {
		loops[i] = &getLoop{c: n.newClient(i), routes: lgRoutes, perOp: 1}
		// Each client starts elsewhere in the mix (the seed says where), so
		// the two are not in lockstep on the expensive route.
		gens = append(gens, loops[i].run(int(cfg.seed)+i*2))
	}
	warmUp(cfg.seconds, gens...)
	for _, l := range loops {
		l.lat.take()
		l.gets, l.failed = 0, 0
	}
	st := timedPhase(cfg.seconds, func() (lat []sample) {
		for _, l := range loops {
			lat = append(lat, l.lat.take()...)
		}
		return lat
	}, gens...)
	res.setPhase(cfg.seconds, setup, st)
	var bad int64
	for _, l := range loops {
		res.attempted += l.gets
		bad += l.failed
		l.c.close()
	}
	res.failed += bad
	res.check(n.models.qoe.Ingested() == preloadN, "QoE ingested %d, want %d", n.models.qoe.Ingested(), preloadN)

	if cfg.tr != nil {
		res.layer["lookingglass.resp_bytes_summaries"] = float64(loops[0].sumBytes)
		res.layer["lookingglass.non2xx"] = float64(bad)
		lgReadLayers(res, cfg.tr, n, recs)
	}
	recoverReadModels(res, n)
	return res, nil
}

// ingestLoop is the open-loop ingest generator of lg-mixed: perTick records
// every tick on a fixed schedule, each timed from the instant it was due.
type ingestLoop struct {
	n        *node
	recs     []core.QoERecord
	fromDue  latencies // AppendIngest completion − due time
	late     latencies // generator wake-up − due time
	appended int64
	offered  int64
	failed   int64
}

const (
	ingestTick    = time.Millisecond
	ingestPerTick = 5 // × 1 000 ticks/s = 5 000 records/s
)

func (g *ingestLoop) run(stop func() bool) {
	t0 := time.Now()
	k := 0
	for ; ; k++ {
		due := t0.Add(time.Duration(k) * ingestTick)
		time.Sleep(time.Until(due))
		if stop() {
			break
		}
		g.late.record(due)
		for j := 0; j < ingestPerTick; j++ {
			rec := g.recs[int(g.appended)%len(g.recs)]
			sp := g.n.tr.begin("projection.append_ingest", 0, 0)
			err := g.n.eng.AppendIngest(rec)
			sp.end()
			g.fromDue.record(due)
			g.appended++
			if err != nil {
				g.failed++
			}
		}
	}
	// Ticks that came due before the stop but were never reached are the
	// generator's shortfall against the offered rate.
	g.offered = max(int64(k), int64(time.Since(t0)/ingestTick)) * ingestPerTick
}

// runLGMixed is the lg-mixed workload: open-loop ingest at 5 000 records/s
// beside one closed-loop poller of the two A2I exports, then recovery of the
// journal just written.
func runLGMixed(cfg runConfig) (*result, error) {
	res := newResult("lg-mixed")
	recs := genRecords(cfg.seed, preloadN)
	n, setup, err := setUp(cfg, func() (*node, error) { return lgNode(recs, cfg.tr) }, discardNode)
	if err != nil {
		return nil, err
	}
	defer n.remove()

	// One op is one poll of a peer: both A2I exports, back to back. (A single
	// GET as the op would put the median on the gap between a 0.1 ms and a
	// 1.5 ms route, where it flips.)
	reader := &getLoop{c: n.newClient(0), routes: lgRoutes[:2], perOp: 2}
	read := reader.run(0)
	warmUp(cfg.seconds, read)
	reader.lat.take()
	reader.gets, reader.failed = 0, 0
	ingest := &ingestLoop{n: n, recs: recs}
	var dueP50, dueP99, lateP99 float64
	st := timedPhase(cfg.seconds, func() []sample {
		fromDue := lats(ingest.fromDue.take())
		dueP50, dueP99 = quantile(fromDue, 0.5), quantile(fromDue, 0.99)
		lateP99 = quantile(lats(ingest.late.take()), 0.99)
		return reader.lat.take()
	}, read, ingest.run)
	res.setPhase(cfg.seconds, setup, st)
	reader.c.close()

	res.attempted += reader.gets + ingest.offered
	res.failed += reader.failed + ingest.failed
	// An achieved rate under 99 % of the offered one counts the shortfall as
	// failed ingests.
	if float64(ingest.appended) < 0.99*float64(ingest.offered) {
		res.failed += ingest.offered - ingest.appended
		fmt.Fprintf(os.Stderr, "bench: lg-mixed: ingest fell behind: %d of %d offered\n", ingest.appended, ingest.offered)
	}
	want := uint64(preloadN + ingest.appended)
	res.check(n.models.qoe.Ingested() == want, "QoE ingested %d, want %d", n.models.qoe.Ingested(), want)

	if cfg.tr != nil {
		res.layer["ingest.from_due_p50_us"] = dueP50 / 1e3
		res.layer["ingest.from_due_p99_ms"] = dueP99 / 1e6
		res.layer["ingest.achieved_per_s"] = float64(ingest.appended) / st.elapsed.Seconds()
		res.layer["bench.gen_late_p99_ms"] = lateP99 / 1e6
		lgMixedLayers(res, cfg.tr, n, recs, int(ingest.appended))
	}
	rc := recoverReadModels(res, n)
	res.layer["journal.recover_us_per_rec"] = us(rc.recover) / float64(rc.records)
	res.layer["projection.resume_ms"] = us(rc.resume) / 1e3
	res.layer["projection.tail_folded"] = float64(rc.tail)
	res.layer["recover.readmodels_us_per_rec"] = us(rc.recover+rc.resume) / float64(rc.records)
	return res, nil
}

// recovery is what restarting from a journal cost.
type recovery struct {
	recover, resume time.Duration
	records, tail   int
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// recoverReadModels stops the node, recovers the journal it wrote, resumes a
// fresh set of read models from it, and requires every resumed folder to equal
// the live one.
func recoverReadModels(res *result, n *node) (rc recovery) {
	live := n.models.digests()
	err := n.stop()
	res.check(err == nil, "node shut down clean: %v", err)

	start := time.Now()
	rec, err := journal.Recover(n.dir)
	rc.recover = time.Since(start)
	res.check(err == nil && len(rec.Stream) > 0, "journal.Recover: %v", err)
	if err != nil {
		return rc
	}
	rc.records = len(rec.Stream)
	models := newReadModels()
	eng, err := newEngine(nil, models)
	if err != nil {
		res.check(false, "resume engine: %v", err)
		return rc
	}
	start = time.Now()
	stats, err := eng.Resume(rec)
	rc.resume = time.Since(start)
	rc.tail = stats.TailFolded[models.qoe.Name()]
	res.check(err == nil, "Engine.Resume: %v", err)
	for i, d := range models.digests() {
		res.check(d == live[i], "resumed folder %q digest %016x, live %016x", models.folders()[i].Name(), d, live[i])
	}
	return rc
}
