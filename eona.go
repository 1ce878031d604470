// Package eona implements EONA — the Experience-Oriented Network
// Architecture of Jiang, Liu, Sekar, Stoica and Zhang (HotNets 2014) — as a
// runnable system: the two information-sharing interfaces between
// application providers (AppPs) and infrastructure providers (InfPs), the
// control loops on both sides, the looking-glass query servers that carry
// the interfaces over HTTP, and the simulation substrate on which every
// scenario from the paper is reproduced quantitatively.
//
// # The two interfaces
//
//   - EONA-A2I (application → infrastructure): client-side experience
//     measurements with attributes, aggregated and optionally blinded by a
//     Collector, plus per-CDN traffic-volume estimates.
//   - EONA-I2A (infrastructure → application): peering points with
//     congestion levels, capacity headroom and the InfP's current egress
//     decision; bottleneck attribution; alternative-server hints.
//
// Both interfaces carry information, never control: no type in this module
// lets one party set another party's knob — exactly the paper's stance that
// providers "are not relinquishing the knobs; they are merely exposing the
// information of values of the decisions associated with their knobs."
//
// # Package map
//
// This facade re-exports the stable surface. The implementation lives in
// internal packages:
//
//   - internal/core — interface types, A2I Collector, staleness model, and
//     the executable §4 interface-design recipe
//   - internal/control — baseline and EONA-enhanced AppP/InfP policies and
//     per-session monitors
//   - internal/lookingglass, internal/wire, internal/auth — the HTTP query
//     servers, versioned exchange format, and token/scope access control
//   - internal/netsim, internal/sim, internal/player, internal/cdn,
//     internal/isp, internal/qoe, internal/workload — the simulation
//     substrate (fluid max-min network, adaptive players, CDNs, ISPs)
//   - internal/agg, internal/privacy, internal/infer, internal/feature,
//     internal/stability — streaming aggregation, blinding, the inference
//     baseline of Figure 4, information-gain feature selection, and
//     oscillation detection/dampening
//   - internal/expt — experiments E1–E15 reproducing every figure and
//     scenario in the paper (see DESIGN.md §4 and EXPERIMENTS.md)
//
// # Quickstart
//
// Derive the paper's Figure 5 interface with the §4 recipe, then watch the
// oscillation disappear:
//
//	iface, _ := eona.Figure5Recipe().WideInterface()
//	for _, item := range iface.Items {
//	    fmt.Println(item.Direction, item.Data)
//	}
//	if tb, ok := eona.RunExperiment("E2", eona.ExperimentConfig{Seed: 1}); ok {
//	    fmt.Print(tb.String())
//	}
//
// See examples/ for runnable programs, including a live looking-glass
// server and client.
package eona

import (
	"time"

	"eona/internal/auth"
	"eona/internal/control"
	"eona/internal/core"
	"eona/internal/expt"
	"eona/internal/faults"
	"eona/internal/lookingglass"
	"eona/internal/netsim"
	"eona/internal/qoe"
	"eona/internal/wire"
)

// ---- Interface data types (EONA-A2I and EONA-I2A) ----

type (
	// QoERecord is one session's client-side measurement with its
	// attributes — the unit of A2I collection.
	QoERecord = core.QoERecord
	// QoESummary is the aggregated, blinded A2I export for one
	// (client ISP, CDN, cluster) group.
	QoESummary = core.QoESummary
	// SummaryKey identifies an A2I aggregation group.
	SummaryKey = core.SummaryKey
	// TrafficEstimate is the A2I per-CDN demand estimate that lets an
	// InfP size its traffic split across peering points (§4).
	TrafficEstimate = core.TrafficEstimate
	// PeeringInfo is the I2A peering hint: congestion, headroom, and
	// whether this is the InfP's current egress for the CDN.
	PeeringInfo = core.PeeringInfo
	// Attribution is the I2A bottleneck-attribution hint (access vs
	// peering vs CDN), optionally with a suggested bitrate cap.
	Attribution = core.Attribution
	// BottleneckSegment locates a problem on the delivery path.
	BottleneckSegment = core.BottleneckSegment
	// ServerHint is the I2A alternative-server hint of §2.
	ServerHint = core.ServerHint
)

// Bottleneck segments.
const (
	SegmentNone    = core.SegmentNone
	SegmentAccess  = core.SegmentAccess
	SegmentPeering = core.SegmentPeering
	SegmentCDN     = core.SegmentCDN
)

// CongestionLevel classifies link utilization for I2A export
// (PeeringInfo.Congestion).
type CongestionLevel = netsim.CongestionLevel

// Congestion levels, least to most loaded.
const (
	CongestionNone     = netsim.CongestionNone
	CongestionModerate = netsim.CongestionModerate
	CongestionHigh     = netsim.CongestionHigh
	CongestionSevere   = netsim.CongestionSevere
)

// ---- A2I production ----

type (
	// Collector is the AppP-side A2I producer: O(1) ingest of
	// QoERecords into windowed, blinded summaries and traffic
	// estimates.
	Collector = core.Collector
	// ExportPolicy sets the blinding level of an A2I export
	// (k-anonymity, Laplace noise, coarsening) — §4's
	// effectiveness-vs-minimality knob.
	ExportPolicy = core.ExportPolicy
	// CollectorConfig is the constructor input for A2I collectors: AppP,
	// policy, traffic window and noise seed. Zero value is runnable.
	CollectorConfig = core.CollectorConfig
)

// NewA2ICollector builds the collector cfg describes.
func NewA2ICollector(cfg CollectorConfig) *Collector { return core.NewA2ICollector(cfg) }

// Per-collaborator standing: which surfaces each partner may read and
// under which blinding policy (§3 "choose the subset of collaborators",
// §4 "specify what can or cannot be shared"). Wire a Registry into
// Sources.QoESummariesFor via Collector.SummariesUnder.
type (
	// Registry tracks collaborators and their export policies.
	Registry = core.Registry
	// Partner is one collaborator's standing.
	Partner = core.Partner
	// Surface names an exportable interface surface.
	Surface = core.Surface
)

// Exportable surfaces.
const (
	SurfaceQoESummaries = core.SurfaceQoESummaries
	SurfaceTraffic      = core.SurfaceTraffic
	SurfacePeering      = core.SurfacePeering
	SurfaceAttribution  = core.SurfaceAttribution
	SurfaceServerHints  = core.SurfaceServerHints
)

// NewRegistry returns an empty collaborator registry.
func NewRegistry() *Registry { return core.NewRegistry() }

// ---- QoE model ----

type (
	// SessionMetrics are the raw client-side session measurements.
	SessionMetrics = qoe.SessionMetrics
	// Model scores sessions (0–100) and estimates engagement.
	Model = qoe.Model
)

// DefaultModel returns the scoring model used across the experiments.
func DefaultModel() Model { return qoe.DefaultModel() }

// RecordFrom flattens player metrics into a QoERecord.
func RecordFrom(model Model, m SessionMetrics, sessionID, appP, clientISP, cdnName, cluster string, at time.Duration) QoERecord {
	return core.RecordFrom(model, m, sessionID, appP, clientISP, cdnName, cluster, at)
}

// ---- The §4 recipe ----

type (
	// Recipe describes one use case: knobs, data attributes, their
	// owners, and the hypothetical global controller's uses.
	Recipe = core.Recipe
	// Interface is a derived set of shared attributes with directions.
	Interface = core.Interface
	// Knob is a control variable with its natural owner.
	Knob = core.Knob
	// DataAttr is an observable with its natural owner.
	DataAttr = core.DataAttr
	// Use is one (knob needs data) edge of the global optimization.
	Use = core.Use
	// Owner is AppP or InfP.
	Owner = core.Owner
	// Direction is A2I or I2A.
	Direction = core.Direction
)

// Owners and directions.
const (
	OwnerAppP = core.OwnerAppP
	OwnerInfP = core.OwnerInfP
	A2I       = core.A2I
	I2A       = core.I2A
)

// Figure5Recipe returns the paper's §4 illustrative example encoded as a
// Recipe; its WideInterface is exactly the A2I/I2A item list the paper
// derives.
func Figure5Recipe() Recipe { return core.Figure5Recipe() }

// ---- Staleness ----

// Delayed models inherent interface delay (§5): values published with Set
// become visible to Get only after the configured delay.
type Delayed[T any] struct{ inner *core.Delayed[T] }

// NewDelayed creates a staleness store with the given interface delay.
func NewDelayed[T any](delay time.Duration) *Delayed[T] {
	return &Delayed[T]{inner: core.NewDelayed[T](delay)}
}

// Set publishes a value at virtual time now (non-decreasing).
func (d *Delayed[T]) Set(now time.Duration, v T) { d.inner.Set(now, v) }

// Get returns the newest value visible at now.
func (d *Delayed[T]) Get(now time.Duration) (T, bool) { return d.inner.Get(now) }

// ---- Control policies ----

type (
	// AppPPolicy decides the AppP's knobs (CDN choice, bitrate cap).
	AppPPolicy = control.AppPPolicy
	// InfPPolicy decides the InfP's knobs (egress per CDN).
	InfPPolicy = control.InfPPolicy
	// BaselineAppP is today's trial-and-error CDN switcher.
	BaselineAppP = control.BaselineAppP
	// EONAAppP reacts to I2A attribution and peering hints.
	EONAAppP = control.EONAAppP
	// BaselineInfP is utilization-reactive cost-greedy TE (the Figure 5
	// oscillator).
	BaselineInfP = control.BaselineInfP
	// EONAInfP sizes egress choices with A2I traffic estimates.
	EONAInfP = control.EONAInfP
)

// ---- Looking-glass servers (the wire-level EONA interfaces) ----

type (
	// Server exposes an owner's A2I/I2A surfaces over HTTP.
	Server = lookingglass.Server
	// Client consumes a peer's looking-glass server.
	Client = lookingglass.Client
	// Sources wires an owner's data into a Server.
	Sources = lookingglass.Sources
	// AuthStore grants bearer tokens scopes per collaborator.
	AuthStore = auth.Store
	// Scope names one exported capability.
	Scope = auth.Scope
	// RateLimiter throttles collaborators.
	RateLimiter = auth.RateLimiter
)

// Scopes for the EONA surfaces.
const (
	ScopeA2IQoE     = auth.ScopeA2IQoE
	ScopeA2ITraffic = auth.ScopeA2ITraffic
	ScopeI2APeering = auth.ScopeI2APeering
	ScopeI2AAttrib  = auth.ScopeI2AAttrib
	ScopeI2AHints   = auth.ScopeI2AHints
	ScopeAdmin      = auth.ScopeAdmin
)

// WireVersion is the exchange-format version this module speaks.
const WireVersion = wire.Version

// NewAuthStore returns an empty token store.
func NewAuthStore() *AuthStore { return auth.NewStore() }

// NewRateLimiter allows rate requests/second with the given burst per
// collaborator.
func NewRateLimiter(rate, burst float64) *RateLimiter { return auth.NewRateLimiter(rate, burst) }

// NewServer builds a looking-glass server over the given sources. limiter
// may be nil.
func NewServer(store *AuthStore, limiter *RateLimiter, src Sources) *Server {
	return lookingglass.NewServer(store, limiter, src)
}

// NewClient targets a peer's looking-glass at baseURL with a bearer token.
func NewClient(baseURL, token string) *Client {
	return lookingglass.NewClient(baseURL, token, nil)
}

// ---- Experiments (the paper's figures and scenarios, runnable) ----

// Typed experiment results, for the experiments the facade composes or runs
// with a custom config; each has a Table() renderer. Every experiment renders
// through RunExperiment.
type (
	// OscillationResult is E2 / Figure 5: compose it from RunScenario arms.
	OscillationResult = expt.E2Result
	// EnergyResult is E5 / §2+§5, as RunEnergySavingConfig returns it.
	EnergyResult = expt.E5Result
)

// Scenario types for custom Figure 5 runs (cmd/eona-sim and downstream
// what-if studies).
type (
	// ScenarioConfig parameterizes the Figure 5 scenario: capacities,
	// demand profile, control modes and periods, staleness, noise, and
	// dampening.
	ScenarioConfig = expt.Fig5Config
	// ScenarioResult summarizes a run: mean QoE, switch counts, limit
	// cycles, and the full decision histories.
	ScenarioResult = expt.Fig5Result
	// Mode selects a party's control generation.
	Mode = expt.Mode
)

// FaultPlan is a materialized, seeded fault schedule (link flaps and
// outages, partner-exchange outages) that a scenario injects through
// ScenarioConfig.Faults (E15).
type FaultPlan = faults.Plan

// Control-policy generations.
const (
	ModeBaseline = expt.Baseline
	ModeEONA     = expt.EONA
)

// RunScenario executes a parameterized Figure 5 scenario.
func RunScenario(cfg ScenarioConfig) ScenarioResult { return expt.RunFig5(cfg) }

// ScenarioOracle returns the global-controller upper bound for a scenario.
func ScenarioOracle(cfg ScenarioConfig) float64 { return expt.Fig5Oracle(cfg) }

// FlashCrowdConfig parameterizes a single Figure 3 arm (horizon, crowd
// peak, control mode).
type FlashCrowdConfig = expt.E1Config

// FlashCrowdArm is one arm's fleet-level outcome.
type FlashCrowdArm = expt.E1Result

// RunFlashCrowdConfig runs one Figure 3 arm with custom parameters.
func RunFlashCrowdConfig(cfg FlashCrowdConfig) FlashCrowdArm { return expt.RunE1Arm(cfg) }

// RunEnergySavingConfig reproduces the §2 server-shutdown scenario (E5)
// under cfg, returning the typed result (policy arms with QoE, energy and
// overload columns). RunExperiment("E5", cfg) renders the same run as a
// table.
func RunEnergySavingConfig(cfg ExperimentConfig) EnergyResult { return expt.RunE5(cfg.Seed) }

// ---- The E-suite as data (experiment registry + parallel runner) ----

type (
	// ExperimentTable is the rendered result of one experiment.
	ExperimentTable = expt.Table
	// ExperimentConfig carries every knob an experiment can draw from
	// (the seed). The zero value is runnable.
	ExperimentConfig = expt.Config
	// ExperimentDef is one registered experiment: ID, title, slow flag,
	// and a Run hook over ExperimentConfig.
	ExperimentDef = expt.Definition
)

// Experiments returns the full registry in suite order. This is the one
// enumeration of the E-suite; RunExperiment runs any entry by ID, and the
// typed config runners (RunScenario, RunFlashCrowdConfig,
// RunEnergySavingConfig) cover callers that need
// structured results instead of rendered tables.
func Experiments() []ExperimentDef { return expt.Definitions() }

// LookupExperiment returns the registered definition for an ID ("E7").
func LookupExperiment(id string) (ExperimentDef, bool) { return expt.Lookup(id) }

// RunExperiment looks up an experiment by ID and runs it under cfg,
// returning its rendered table (nil, false for an unknown ID).
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, bool) {
	d, ok := expt.Lookup(id)
	if !ok {
		return nil, false
	}
	return d.Run(cfg), true
}

// RunExperiments runs each definition under cfg with at most parallelism
// workers (GOMAXPROCS when ≤ 0), returning tables in input order.
// parallelism 1 reproduces the sequential runner exactly.
func RunExperiments(defs []ExperimentDef, cfg ExperimentConfig, parallelism int) []*ExperimentTable {
	return expt.RunConcurrent(defs, cfg, parallelism)
}
