package edram

// This file is the public facade of the module: the stable entry points
// a downstream user needs, re-exported from the internal packages (which
// are not importable outside this module). The facade covers the three
// workflows the paper's reproduction supports:
//
//  1. Build an embedded macro and read its views (BuildMacro, Views).
//  2. Explore the design space and get quantized recommendations
//     (ExploreContext, RecommendContext; Explore and Recommend remain
//     as serial compatibility wrappers).
//  3. Simulate a multi-client memory system on a macro (Simulate).

import (
	"context"

	"edram/internal/core"
	iedram "edram/internal/edram"
	"edram/internal/experiments"
	"edram/internal/mapping"
	"edram/internal/mpeg2"
	"edram/internal/reliab"
	"edram/internal/scanconv"
	"edram/internal/scenario"
	"edram/internal/sched"
	"edram/internal/service"
	"edram/internal/traffic"
	"edram/internal/views"
)

// MacroSpec specifies an embedded DRAM macro (capacity, interface width,
// banks, page length, building block, redundancy). Zero-valued optional
// fields are auto-derived.
type MacroSpec = iedram.Spec

// Macro is a constructed embedded memory module with area, timing,
// bandwidth and power views.
type Macro = iedram.Macro

// Redundancy levels for MacroSpec.Redundancy.
const (
	RedundancyNone = iedram.RedundancyNone
	RedundancyLow  = iedram.RedundancyLow
	RedundancyStd  = iedram.RedundancyStd
	RedundancyHigh = iedram.RedundancyHigh
)

// BuildMacro validates the spec and constructs the macro.
func BuildMacro(spec MacroSpec) (*Macro, error) { return iedram.Build(spec) }

// ViewFile is one generated deliverable (HDL, floorplan, .lib, test
// program or datasheet).
type ViewFile = views.File

// Views renders the §5 "all views" bundle of a macro.
func Views(m *Macro) ([]ViewFile, error) {
	b, err := views.New(m)
	if err != nil {
		return nil, err
	}
	return b.All()
}

// Requirements captures what an application needs from its embedded
// memory: capacity, sustained bandwidth at an expected page-hit rate,
// and optional area/power/clock constraints.
type Requirements = core.Requirements

// Candidate is one evaluated design point; Recommendation a quantized,
// named pick from the Pareto frontier.
type (
	Candidate      = core.Candidate
	Recommendation = core.Recommendation
)

// DesignPoint is one un-evaluated coordinate of the design space, as
// enumerated by the sweep generator feeding the exploration engine.
type DesignPoint = core.Point

// ExploreStats is a progress snapshot of the parallel exploration
// engine (points enumerated/built/infeasible/pruned, Pareto-front size,
// wall time, per-worker busy time).
type ExploreStats = core.ExploreStats

// ExploreOption configures ExploreContext and RecommendContext.
type ExploreOption = core.ExploreOption

// WithWorkers sets the evaluation worker-pool size (default
// runtime.GOMAXPROCS(0)).
func WithWorkers(n int) ExploreOption { return core.WithWorkers(n) }

// WithProgress registers a periodic progress callback; the final
// snapshot arrives with ExploreStats.Done set.
func WithProgress(fn func(ExploreStats)) ExploreOption { return core.WithProgress(fn) }

// WithProgressEvery sets the number of enumerated points between
// progress callbacks (default 512).
func WithProgressEvery(n int) ExploreOption { return core.WithProgressEvery(n) }

// WithObserver registers a per-candidate tap, invoked serially after
// the sweep's fold for every built candidate of the window, in
// increasing Seq, before it is streamed to the caller; a sweep with a
// tap builds every candidate in full, Macro and reasons included, in
// the caller's goroutine.
func WithObserver(fn func(Candidate)) ExploreOption { return core.WithObserver(fn) }

// ExploreContext enumerates and evaluates the full design space on a
// worker pool, streaming every buildable candidate (feasible or not) on
// the returned channel until the sweep is exhausted or ctx is
// cancelled. The candidates arrive in canonical enumeration order
// (increasing Candidate.Seq) at any worker count. The channel is a
// wrapper over the engine's one sweep fold: the candidates are sent
// from its observer, after the fold and the caller's own WithObserver
// tap.
func ExploreContext(ctx context.Context, req Requirements, opts ...ExploreOption) (<-chan Candidate, error) {
	return core.ExploreContext(ctx, req, opts...)
}

// RecommendContext is the context-aware, parallel form of Recommend:
// it folds the space through the engine's incremental Pareto front and
// quantizes the feasible survivors into at most four named picks.
func RecommendContext(ctx context.Context, req Requirements, opts ...ExploreOption) ([]Recommendation, error) {
	return core.RecommendContext(ctx, req, opts...)
}

// Explore enumerates and evaluates the full design space for the
// requirements, serially, returning candidates in enumeration order.
// It is a compatibility wrapper over ExploreContext; new code should
// prefer the streaming API.
func Explore(req Requirements) ([]Candidate, error) { return core.Explore(req) }

// Recommend quantizes the feasible Pareto frontier into at most four
// named configurations (min-area, min-power, max-bandwidth, min-cost).
// It is a compatibility wrapper over RecommendContext.
func Recommend(req Requirements) ([]Recommendation, error) { return core.Recommend(req) }

// Client is one memory client (a request generator plus an optional
// latency budget for the deadline arbiter).
type Client = sched.Client

// Request generators for Client.Gen.
type (
	Sequential  = traffic.Sequential
	Strided     = traffic.Strided
	Random      = traffic.Random
	Block2D     = traffic.Block2D
	Alternating = traffic.Alternating
)

// SimOptions configures the memory controller (arbitration policy, page
// policy, FR-FCFS reorder window, tracing).
type SimOptions = sched.Options

// Arbitration policies for SimOptions.Policy.
const (
	RoundRobin    = sched.RoundRobin
	FixedPriority = sched.FixedPriority
	OldestFirst   = sched.OldestFirst
	OpenPageFirst = sched.OpenPageFirst
	Deadline      = sched.Deadline
)

// SimResult is the outcome of a controller run: sustained bandwidth,
// hit rate, per-client latency statistics and FIFO depths.
type SimResult = sched.Result

// Simulate runs the clients against the macro through a bank-interleaved
// mapping with the given controller options.
func Simulate(m *Macro, opt SimOptions, clients []Client) (SimResult, error) {
	cfg := m.DeviceConfig()
	gm := mapping.Geometry{Banks: cfg.Banks, RowsBank: cfg.RowsPerBank, PageBytes: cfg.PageBits / 8}
	mp, err := mapping.NewBankInterleaved(gm)
	if err != nil {
		return SimResult{}, err
	}
	return sched.RunWithOptions(cfg, mp, opt, clients)
}

// ECCScheme selects the word-level error protection of a macro's
// interface (MacroSpec.ECC, ReliabilityConfig.ECC).
type ECCScheme = reliab.ECC

// ECC schemes, weakest to strongest.
const (
	ECCNone         = reliab.ECCNone
	ECCParity       = reliab.ECCParity
	ECCSECDED       = reliab.ECCSECDED
	ECCChipkillLite = reliab.ECCChipkillLite
)

// ParseECC maps a scheme name ("none", "parity", "secded", "chipkill")
// to its ECCScheme.
func ParseECC(name string) (ECCScheme, error) { return reliab.ParseECC(name) }

// ReliabilityConfig arms the fault-injection and repair pipeline for a
// simulation (SimOptions.Reliability): seeded defect map, retention
// tail, soft-error rate, ECC scheme and spare-row budget.
type ReliabilityConfig = reliab.Config

// FaultEvent is one runtime error event observed by the reliability
// ladder (SimOptions.FaultObserver).
type FaultEvent = reliab.FaultEvent

// ReliabilityStats aggregates the ladder's counters over a run
// (SimResult.Reliability): injected faults, per-outcome access counts,
// retries, scrubs, spare usage and capacity degradation.
type ReliabilityStats = reliab.Stats

// Experiment is one regenerated table of the paper; Experiments runs the
// full E1–E22 + ablation (A1–A5) suite (what cmd/papertables prints).
type Experiment = experiments.Experiment

// Experiments regenerates every experiment.
func Experiments() ([]Experiment, error) { return experiments.All() }

// Application models (the paper's case studies), re-exported for
// downstream sizing studies.

// MPEG2 decoder memory model (§4.1).
type (
	MPEG2Format = mpeg2.Format
	MPEG2Budget = mpeg2.Budget
)

// MPEG2PAL and MPEG2NTSC return the standard 4:2:0 formats.
func MPEG2PAL() MPEG2Format  { return mpeg2.PAL() }
func MPEG2NTSC() MPEG2Format { return mpeg2.NTSC() }

// MPEG2BudgetFor computes the decoder's memory budget (full output
// buffer mode).
func MPEG2BudgetFor(f MPEG2Format) (MPEG2Budget, error) {
	return mpeg2.BudgetFor(f, mpeg2.FullOutput)
}

// Scan-rate converter memory model (§5 application list).
type (
	ScanStandard = scanconv.Standard
	ScanBudget   = scanconv.Budget
)

// ScanPAL50 returns the 625-line 50-Hz source standard.
func ScanPAL50() ScanStandard { return scanconv.PAL50() }

// ScanBudgetFor computes the field-store budget of an n-field
// motion-adaptive converter.
func ScanBudgetFor(s ScanStandard, fields int) (ScanBudget, error) {
	return scanconv.BudgetFor(s, fields)
}

// RedundancyLevel names a redundancy provisioning level of a MacroSpec.
type RedundancyLevel = iedram.RedundancyLevel

// ParseRedundancy maps a level name ("none", "low", "std", "high") to
// its RedundancyLevel — the inverse of RedundancyLevel.String and the
// JSON wire form.
func ParseRedundancy(name string) (RedundancyLevel, error) { return iedram.ParseRedundancy(name) }

// Service layer (the fourth workflow): ServeHTTP-able server behind
// cmd/edramd with a canonical-key result cache, request coalescing and
// a shared evaluation worker pool. The wire schema re-exported below is
// JSON-stable: edramx -json, the daemon and these types all encode
// through the same builders.
type (
	Service        = service.Server
	ServiceConfig  = service.Config
	ServiceMetrics = service.Metrics
)

// NewService builds a server (its own cache, worker pool and metrics
// registry) from the config; the zero config gets production defaults.
func NewService(cfg ServiceConfig) *Service { return service.NewServer(cfg) }

// Wire schema of the service endpoints (and of edramx -json).
type (
	ExploreResponse     = service.ExploreResponse
	RecommendResponse   = service.RecommendResponse
	SimulateRequest     = service.SimulateRequest
	SimulateResponse    = service.SimulateResponse
	DatasheetResponse   = service.DatasheetResponse
	ExperimentsResponse = service.ExperimentsResponse
)

// Wire schema of the async job API (POST /v1/jobs and friends):
// long-running explores, Monte-Carlo reliability campaigns and
// scenario evaluations with resumable range-partitioned checkpoints.
type (
	JobRequest        = service.JobRequest
	JobStatusResponse = service.JobStatusResponse
	JobListResponse   = service.JobListResponse
	TrialsJobRequest  = service.TrialsJobRequest
	TrialsResponse    = service.TrialsResponse
)

// BuildExploreResponse runs the exploration and assembles the
// /v1/explore wire response — what edramx -json prints and the daemon
// serves, byte-identical through EncodeResponse.
func BuildExploreResponse(ctx context.Context, req Requirements, workers int) (*ExploreResponse, error) {
	return service.BuildExplore(ctx, req, workers, nil)
}

// EncodeResponse renders any wire response in its canonical encoding
// (compact JSON plus trailing newline).
func EncodeResponse(v any) ([]byte, error) { return service.Encode(v) }

// Declarative scenarios (the fifth workflow): a versioned JSON document
// describing a memory hierarchy, a workload and a constraint set,
// compiled onto the engine's inputs. One loader backs POST /v1/scenario
// on edramd, `edramx -scenario` and `memsim -scenario`; the corpus
// under examples/scenarios/ is the reference document set.
type (
	Scenario         = scenario.Scenario
	ScenarioLevel    = scenario.Level
	ScenarioClient   = scenario.Client
	CompiledScenario = scenario.Compiled
	ClientSpec       = scenario.ClientSpec
	ScenarioResponse = service.ScenarioResponse
)

// WireSchemaVersion is the wire-schema version every service response
// reports in schema_version and every scenario document must declare.
const WireSchemaVersion = service.SchemaVersion

// ParseScenario decodes a scenario document with strict field checking
// (unknown fields are errors, not ignored knobs).
func ParseScenario(b []byte) (*Scenario, error) { return scenario.Parse(b) }

// LoadScenario reads, parses and validates a scenario file, reporting
// every violation in one aggregate error.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// BuildScenarioResponse compiles and evaluates a scenario — the
// /v1/scenario wire response, byte-identical to `edramx -scenario
// -json` through EncodeResponse.
func BuildScenarioResponse(ctx context.Context, scn *Scenario, workers int) (*ScenarioResponse, error) {
	return service.BuildScenario(ctx, scn, workers)
}
