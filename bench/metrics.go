package main

// metricSpec names one metric. BENCHMARK.json repeats Name, Unit, Better and
// (end-to-end) Bound; the smoke test holds the two together. From and Moves
// are the written-down prediction for a per-layer metric: the workload whose
// pass measures it, and the end-to-end metric it should move there.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	From   string
	Moves  string
}

// endToEnd is what a user of the node sees, on every workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// anyWorkload marks a per-layer metric that describes the named workload's own
// traced pass rather than one fixed workload.
const anyWorkload = "all"

// perLayer is what the traced run reports. Layers are the repository's
// modules; nethttp is the stdlib transport a request crosses.
var perLayer = []metricSpec{
	// lg-read: the request path, layer by layer.
	{Name: "nethttp.self_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p50_ms"},
	{Name: "lookingglass.serve_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "ops_per_s"},
	{Name: "lookingglass.serve_summaries_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p99_ms"},
	{Name: "lookingglass.self_summaries_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p99_ms"},
	{Name: "lookingglass.resp_bytes_summaries", Unit: "count", Better: "lower", From: "lg-read", Moves: "alloc_kb_per_op"},
	{Name: "lookingglass.non2xx", Unit: "count", Better: "lower", From: "lg-read", Moves: "op_p50_ms"},
	{Name: "auth.authorize_ns", Unit: "ns", Better: "lower", From: "lg-read", Moves: "cpu_ms_per_op"},
	{Name: "wire.encode_summaries_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p99_ms"},
	{Name: "wire.decode_summaries_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p99_ms"},
	{Name: "projection.read_summaries_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p99_ms"},
	{Name: "projection.read_traffic_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p50_ms"},
	{Name: "core.summaries_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p99_ms"},
	{Name: "core.ingest_ns", Unit: "ns", Better: "lower", From: "lg-read", Moves: "setup_s"},
	{Name: "core.groups", Unit: "count", Better: "higher", From: "lg-read", Moves: "alloc_kb_per_op"},
	{Name: "ctlplane.links_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p50_ms"},
	{Name: "ctlplane.flows_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p50_ms"},
	{Name: "ctlplane.stats_us", Unit: "us", Better: "lower", From: "lg-read", Moves: "op_p50_ms"},
	{Name: "bench.lgread_layers_over_client", Unit: "ratio", Better: "higher", From: "lg-read", Moves: "op_p99_ms"},

	// lg-mixed: reads and appends sharing the engine lock, and the restart.
	{Name: "projection.read_summaries_contended_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "op_p50_ms"},
	{Name: "projection.read_traffic_contended_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "op_p50_ms"},
	{Name: "projection.append_ingest_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "cpu_ms_per_op"},
	{Name: "projection.append_ingest_p99_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "op_p99_ms"},
	{Name: "projection.fold_ingest_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "cpu_ms_per_op"},
	{Name: "projection.encode_state_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "op_p99_ms"},
	{Name: "projection.ckpt_bytes", Unit: "count", Better: "lower", From: "lg-mixed", Moves: "op_p99_ms"},
	{Name: "journal.append_ingest_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "cpu_ms_per_op"},
	{Name: "journal.bytes_per_rec", Unit: "count", Better: "lower", From: "lg-mixed", Moves: "cpu_ms_per_op"},
	{Name: "ingest.from_due_p50_us", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "cpu_ms_per_op"},
	{Name: "ingest.from_due_p99_ms", Unit: "ms", Better: "lower", From: "lg-mixed", Moves: "op_p99_ms"},
	{Name: "ingest.achieved_per_s", Unit: "1/s", Better: "higher", From: "lg-mixed", Moves: "ops_per_s"},
	{Name: "bench.gen_late_p99_ms", Unit: "ms", Better: "lower", From: "lg-mixed", Moves: "op_p99_ms"},
	{Name: "journal.recover_us_per_rec", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "setup_s"},
	{Name: "projection.resume_ms", Unit: "ms", Better: "lower", From: "lg-mixed", Moves: "setup_s"},
	{Name: "projection.tail_folded", Unit: "count", Better: "lower", From: "lg-mixed", Moves: "setup_s"},
	{Name: "recover.readmodels_us_per_rec", Unit: "us", Better: "lower", From: "lg-mixed", Moves: "setup_s"},

	// net-churn: a journaled window split into allocator, sink and journal.
	{Name: "netsim.journaled_window_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p50_ms"},
	{Name: "netsim.window_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p50_ms"},
	{Name: "netsim.state_digest_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p50_ms"},
	{Name: "netsim.export_state_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p99_ms"},
	{Name: "projection.append_op_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p50_ms"},
	{Name: "projection.sink_us_per_window", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p50_ms"},
	{Name: "journal.append_op_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p50_ms"},
	{Name: "journal.append_snapshot_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "op_p99_ms"},
	{Name: "journal.snapshot_bytes", Unit: "count", Better: "lower", From: "net-churn", Moves: "op_p99_ms"},
	{Name: "netsim.flows_recomputed_per_window", Unit: "count", Better: "lower", From: "net-churn", Moves: "cpu_ms_per_op"},
	{Name: "netsim.incremental_ratio", Unit: "ratio", Better: "higher", From: "net-churn", Moves: "cpu_ms_per_op"},
	{Name: "netsim.registry_rebuilds", Unit: "count", Better: "lower", From: "net-churn", Moves: "cpu_ms_per_op"},
	{Name: "netsim.snapshot_read_ns", Unit: "ns", Better: "lower", From: "net-churn", Moves: "cpu_ms_per_op"},
	{Name: "ctlplane.links_under_churn_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "cpu_ms_per_op"},
	{Name: "ctlplane.impair_ms", Unit: "ms", Better: "lower", From: "net-churn", Moves: "op_p99_ms"},
	{Name: "journal.recover_net_us_per_rec", Unit: "us", Better: "lower", From: "net-churn", Moves: "setup_s"},
	{Name: "journal.materialize_ms", Unit: "ms", Better: "lower", From: "net-churn", Moves: "setup_s"},
	{Name: "netsim.replay_op_us", Unit: "us", Better: "lower", From: "net-churn", Moves: "setup_s"},
	{Name: "recover.network_us_per_rec", Unit: "us", Better: "lower", From: "net-churn", Moves: "setup_s"},
	{Name: "bench.netchurn_layers_over_window", Unit: "ratio", Better: "higher", From: "net-churn", Moves: "op_p50_ms"},

	// sim-arms: the simulator, alone.
	{Name: "expt.e1_pair_ms", Unit: "ms", Better: "lower", From: "sim-arms", Moves: "op_p50_ms"},
	{Name: "expt.engine_arm_w1_ms", Unit: "ms", Better: "lower", From: "sim-arms", Moves: "op_p50_ms"},
	{Name: "expt.engine_arm_w2_ms", Unit: "ms", Better: "lower", From: "sim-arms", Moves: "op_p50_ms"},
	{Name: "expt.e1_sessions_per_s", Unit: "1/s", Better: "higher", From: "sim-arms", Moves: "ops_per_s"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", From: "sim-arms", Moves: "ops_per_s"},

	// Validity of the traced numbers themselves.
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "higher", From: anyWorkload, Moves: "ops_per_s"},
	{Name: "bench.spans", Unit: "count", Better: "lower", From: anyWorkload, Moves: "ops_per_s"},
}
