// Package edram is a reproduction of "Embedded DRAM Architectural
// Trade-Offs" (Wehn & Hein, DATE 1998): a CACTI-style analytical model
// suite plus an event-driven memory-system simulator for embedded DRAM,
// with a design-space explorer as its primary deliverable.
//
// The root package is the stable facade (edram.go) over the internal
// packages. It covers three workflows:
//
//  1. Build a macro and render its deliverables: BuildMacro, Views.
//  2. Explore the §3 design space: ExploreContext streams every
//     buildable Candidate, in Seq order, of a sweep a parallel worker
//     pool evaluated (a wrapper over the engine's one sweep fold, which
//     keeps the sweep's Pareto front), and RecommendContext quantizes the feasible Pareto
//     frontier into at most four named picks. Both take a context for
//     cancellation and functional options — WithWorkers (pool size),
//     WithProgress (ExploreStats snapshots: points enumerated/built/
//     infeasible/pruned, front size, wall time, per-worker busy time),
//     and WithObserver (a per-candidate tap that reads the finished
//     sweep, every built candidate in Seq order).
//  3. Simulate a multi-client memory system on a macro: Simulate, with
//     SimOptions.Observer as the matching per-request trace callback.
//  4. Serve the engine over HTTP: NewService builds the server behind
//     cmd/edramd (result cache keyed by canonical request strings,
//     request coalescing, a shared worker pool, Prometheus metrics);
//     the re-exported wire types (ExploreResponse, ...) are the
//     JSON-stable schema shared with edramx -json, and Requirements /
//     MacroSpec carry the matching JSON tags. Every response carries
//     schema_version (WireSchemaVersion); requests may pin one.
//  5. Describe whole scenarios declaratively: LoadScenario reads a
//     versioned JSON document (hierarchy levels + workload clients +
//     constraints, see examples/scenarios/), Scenario.Compile lowers
//     it onto Requirements/MacroSpec/client inputs, and
//     BuildScenarioResponse evaluates every level — the same path as
//     POST /v1/scenario and `edramx -scenario`.
//
// Migration note: the original serial signatures remain as thin
// wrappers over the engine and keep their exact behavior —
//
//	Explore(req)   ≡ collect ExploreContext(context.Background(), req),
//	                 which streams in Candidate.Seq (enumeration) order
//	Recommend(req) ≡ RecommendContext(context.Background(), req)
//
// — so existing callers need no change; new code should use the
// context-aware forms.
//
// See README.md for the package map, DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-vs-measured record. bench_test.go
// carries the experiment benchmarks plus BenchmarkExploreParallel, the
// engine's points/sec scaling record.
package edram
