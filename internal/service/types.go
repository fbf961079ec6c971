// The wire schema of the service layer and the builders that produce
// it. These types (plus core.Requirements and edram.Spec, which carry
// their own JSON tags) are the single source of truth for
// serialization: the HTTP handlers, edramx -json and the parity tests
// all go through BuildExplore/BuildRecommend/... and Encode, so the
// daemon and the CLI cannot drift apart. Responses deliberately contain
// no wall-clock or worker-count fields — the same request must encode
// to the same bytes at any pool size, which is what makes them
// cacheable and the CLI/service parity byte-exact.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"edram/internal/core"
	"edram/internal/edram"
	"edram/internal/experiments"
	"edram/internal/mapping"
	"edram/internal/reliab"
	"edram/internal/scenario"
	"edram/internal/sched"
)

// SchemaVersion is the wire-schema version every response carries in
// its schema_version field and every request may pin. It tracks the
// scenario document version: additive changes keep the number,
// key-affecting changes bump it together with the canonical-key tags
// (DESIGN.md "Wire-schema versioning").
const SchemaVersion = scenario.SchemaVersion

// checkSchemaVersion validates a request's optional version pin
// (0 = unpinned, accept).
func checkSchemaVersion(v int) error {
	if v != 0 && v != SchemaVersion {
		return fmt.Errorf("unsupported schema_version %d (this server speaks %d)", v, SchemaVersion)
	}
	return nil
}

// RequirementsRequest is the explore/recommend request body: the core
// requirements plus an optional schema_version pin. The pin is not
// part of the canonical key — pinning the version the server already
// speaks cannot change the result.
type RequirementsRequest struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	core.Requirements
}

// DatasheetRequest is the datasheet request body: a macro spec plus an
// optional schema_version pin.
type DatasheetRequest struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	edram.Spec
}

// CandidateJSON is the wire form of one evaluated design point
// (core.Candidate without the constructed Macro, plus its clock).
type CandidateJSON struct {
	Seq            int        `json:"seq"`
	Spec           edram.Spec `json:"spec"`
	Macros         int        `json:"macros"`
	ClockMHz       float64    `json:"clock_mhz"`
	AreaMm2        float64    `json:"area_mm2"`
	PowerMW        float64    `json:"power_mw"`
	PeakGBps       float64    `json:"peak_gbps"`
	SustainedGBps  float64    `json:"sustained_gbps"`
	DieYield       float64    `json:"die_yield"`
	CostUSD        float64    `json:"cost_usd"`
	CostPerMbitUSD float64    `json:"cost_per_mbit_usd"`
	Feasible       bool       `json:"feasible"`
	Reasons        []string   `json:"reasons,omitempty"`
}

// RecommendationJSON is one quantized pick.
type RecommendationJSON struct {
	Role string `json:"role"`
	CandidateJSON
}

// ExploreResponse is the POST /v1/explore (and edramx -json) schema.
type ExploreResponse struct {
	SchemaVersion int               `json:"schema_version"`
	Request       core.Requirements `json:"request"`
	// Key is the canonical-key hash identifying this request in the
	// result cache (see DESIGN.md for the canonicalization rules).
	Key        string               `json:"key"`
	Points     int64                `json:"points"`
	Built      int64                `json:"built"`
	Infeasible int64                `json:"infeasible"`
	Pruned     int64                `json:"pruned"`
	Frontier   []CandidateJSON      `json:"frontier"`
	Picks      []RecommendationJSON `json:"recommendations"`
}

// RecommendResponse is the POST /v1/recommend schema.
type RecommendResponse struct {
	SchemaVersion int                  `json:"schema_version"`
	Request       core.Requirements    `json:"request"`
	Key           string               `json:"key"`
	Picks         []RecommendationJSON `json:"recommendations"`
}

// SimulateOptions is the wire form of the controller options.
type SimulateOptions struct {
	// Policy is the arbitration scheme by name: "round-robin",
	// "fixed-priority", "oldest-first", "open-page-first", "deadline"
	// ("" = round-robin).
	Policy        string `json:"policy,omitempty"`
	ClosedPage    bool   `json:"closed_page,omitempty"`
	ReorderWindow int    `json:"reorder_window,omitempty"`
}

// ClientSpec is the wire form of one memory client: a named request
// generator. It is the scenario package's type — the scenario language
// and the simulate wire schema share one client vocabulary (and one
// Violations implementation).
type ClientSpec = scenario.ClientSpec

// SimulateRequest is the POST /v1/simulate schema. SchemaVersion is an
// optional version pin; it is deliberately absent from the canonical
// key (pinning the version the server already speaks is
// identity-neutral).
type SimulateRequest struct {
	// SchemaVersion optionally pins the wire version.
	//cachekey:exempt version pin validated to the one supported value; cannot change the result
	SchemaVersion int             `json:"schema_version,omitempty"`
	Spec          edram.Spec      `json:"spec"`
	Options       SimulateOptions `json:"options"`
	Clients       []ClientSpec    `json:"clients"`
}

// ClientResultJSON is one client's service quality.
type ClientResultJSON struct {
	Name         string  `json:"name"`
	Requests     int     `json:"requests"`
	AchievedGBps float64 `json:"achieved_gbps"`
	BitsMoved    int64   `json:"bits_moved"`
	MeanNs       float64 `json:"mean_ns"`
	P50Ns        float64 `json:"p50_ns"`
	P95Ns        float64 `json:"p95_ns"`
	P99Ns        float64 `json:"p99_ns"`
	MaxNs        float64 `json:"max_ns"`
	MaxFIFODepth int     `json:"max_fifo_depth"`
}

// SimulateResponse is the POST /v1/simulate response schema.
type SimulateResponse struct {
	SchemaVersion     int                `json:"schema_version"`
	Spec              edram.Spec         `json:"spec"`
	Key               string             `json:"key"`
	Policy            string             `json:"policy"`
	PeakGBps          float64            `json:"peak_gbps"`
	SustainedGBps     float64            `json:"sustained_gbps"`
	SustainedFraction float64            `json:"sustained_fraction"`
	HitRate           float64            `json:"hit_rate"`
	DurationNs        float64            `json:"duration_ns"`
	Clients           []ClientResultJSON `json:"clients"`
}

// DatasheetResponse is the POST /v1/datasheet response schema.
type DatasheetResponse struct {
	SchemaVersion        int        `json:"schema_version"`
	Spec                 edram.Spec `json:"spec"`
	Key                  string     `json:"key"`
	ClockMHz             float64    `json:"clock_mhz"`
	AreaMm2              float64    `json:"area_mm2"`
	EfficiencyMbitPerMm2 float64    `json:"efficiency_mbit_per_mm2"`
	PeakGBps             float64    `json:"peak_gbps"`
	FillFrequencyHz      float64    `json:"fill_frequency_hz"`
	Banks                int        `json:"banks"`
	RowsPerBank          int        `json:"rows_per_bank"`
	PageBits             int        `json:"page_bits"`
	Text                 string     `json:"text"`
}

// ExperimentsRequest is the POST /v1/experiments schema (empty body =
// the full suite).
type ExperimentsRequest struct {
	// SchemaVersion optionally pins the wire version (absent from the
	// canonical key, like the simulate pin).
	//cachekey:exempt version pin validated to the one supported value; cannot change the result
	SchemaVersion int `json:"schema_version,omitempty"`
	// IDs filters the suite ("E1", "A3", ...); empty runs everything.
	IDs []string `json:"ids,omitempty"`
}

// FindingJSON is one headline number of an experiment.
type FindingJSON struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
}

// ExperimentJSON is one regenerated table.
type ExperimentJSON struct {
	ID       string        `json:"id"`
	Title    string        `json:"title"`
	Findings []FindingJSON `json:"findings"`
	Table    string        `json:"table"`
}

// ExperimentsResponse is the POST /v1/experiments response schema.
type ExperimentsResponse struct {
	SchemaVersion int              `json:"schema_version"`
	Key           string           `json:"key"`
	Experiments   []ExperimentJSON `json:"experiments"`
}

// ErrorResponse is the schema of every non-2xx body.
type ErrorResponse struct {
	SchemaVersion int    `json:"schema_version"`
	Error         string `json:"error"`
}

// Encode renders a response in its canonical wire form: compact JSON
// plus a trailing newline. Every byte served (or cached, or printed by
// edramx -json) goes through here.
func Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// candidateJSON converts one evaluated candidate to its wire form.
func candidateJSON(c core.Candidate) CandidateJSON {
	out := CandidateJSON{
		Seq:            c.Seq,
		Spec:           c.Spec,
		Macros:         c.Macros,
		AreaMm2:        c.AreaMm2,
		PowerMW:        c.PowerMW,
		PeakGBps:       c.PeakGBps,
		SustainedGBps:  c.SustainedGBps,
		DieYield:       c.DieYield,
		CostUSD:        c.CostUSD,
		CostPerMbitUSD: c.CostPerMbitUSD,
		Feasible:       c.Feasible,
		Reasons:        c.Reasons,
	}
	if c.Macro != nil {
		out.ClockMHz = c.Macro.ClockMHz
	}
	return out
}

// BuildExplore runs the full design-space exploration for req on
// workers evaluation workers and assembles the /v1/explore response:
// deterministic sweep counters, the feasible Pareto frontier in
// canonical order, and the quantized recommendations. progress, when
// non-nil, receives the engine's periodic ExploreStats snapshots (the
// CLI's progress line). extra options are appended to the engine's
// (the delta recorder passes its observer through here).
//
// The sweep runs constraint-pruned: subspaces the engine can prove
// infeasible are skipped analytically and folded back into the
// SweepResult's counters, so the response stays byte-identical to an
// unpruned run (the parity tests pin this).
func BuildExplore(ctx context.Context, req core.Requirements, workers int, progress func(core.ExploreStats), extra ...core.ExploreOption) (*ExploreResponse, error) {
	opts := append([]core.ExploreOption{core.WithWorkers(workers), core.WithPruning(), core.WithProgress(progress)}, extra...)
	res, err := core.SweepContext(ctx, req, opts...)
	if err != nil {
		return nil, err
	}
	return exploreResponseFromMerged(req, res)
}

// sweepPartition sweeps the absolute-Seq slice [from, to) of req's
// design space, constraint-pruned: the partition's folded counters and
// its local Pareto front, ready to Merge. An explore job folds one per
// checkpoint.
func sweepPartition(ctx context.Context, req core.Requirements, from, to, workers int) (core.SweepResult, error) {
	return core.SweepContext(ctx, req, core.WithWorkers(workers), core.WithPruning(), core.WithSeqRange(from, to))
}

// BuildExploreDelta assembles the /v1/explore response for req from a
// retained delta state instead of a cold sweep: only the Seq intervals
// the state never covered are evaluated fresh, everything else is
// re-filtered under req's constraint values. The response is
// byte-identical to BuildExplore's (the delta parity tests pin this);
// the DeltaResult carries the swept/reused accounting for metrics.
func BuildExploreDelta(ctx context.Context, st *core.DeltaState, req core.Requirements, workers int) (*ExploreResponse, *core.DeltaResult, error) {
	res, err := core.DeltaExplore(ctx, st, req, workers)
	if err != nil {
		return nil, nil, err
	}
	resp, err := exploreResponseFromMerged(req, res.SweepResult)
	if err != nil {
		return nil, nil, err
	}
	return resp, res, nil
}

// errNoBuildable marks an explore in which no design point could be
// built at all.
var errNoBuildable = errors.New("no buildable configuration")

// exploreResponseFromMerged is the one builder of explore responses:
// every path — the undivided sweep, the delta tier and the
// checkpointed job — folds its work into a core.SweepResult and
// assembles the wire form here.
func exploreResponseFromMerged(req core.Requirements, merged core.SweepResult) (*ExploreResponse, error) {
	if merged.Built == 0 {
		return nil, fmt.Errorf("%w for %+v", errNoBuildable, req)
	}
	resp := &ExploreResponse{
		SchemaVersion: SchemaVersion,
		Request:       req,
		Key:           HashKey("explore", req.CanonicalKey()),
		Points:        merged.Enumerated,
		Built:         merged.Built,
		Infeasible:    merged.Infeasible,
		Pruned:        merged.Pruned(),
		Frontier:      make([]CandidateJSON, 0, len(merged.Frontier)),
		Picks:         []RecommendationJSON{},
	}
	for _, c := range merged.Frontier {
		resp.Frontier = append(resp.Frontier, candidateJSON(c))
	}
	for _, r := range core.Quantize(merged.Frontier) {
		resp.Picks = append(resp.Picks, recommendationJSON(r))
	}
	return resp, nil
}

func recommendationJSON(r core.Recommendation) RecommendationJSON {
	return RecommendationJSON{Role: r.Role, CandidateJSON: candidateJSON(r.Candidate)}
}

// BuildRecommend returns the /v1/recommend response: the quantized
// picks of req's explore answer. Unlike explore, an empty feasible set
// is an error (mirroring core.RecommendContext).
func BuildRecommend(ctx context.Context, req core.Requirements, workers int) (*RecommendResponse, error) {
	ex, err := BuildExplore(ctx, req, workers, nil)
	if err != nil && !errors.Is(err, errNoBuildable) {
		return nil, err
	}
	var picks []RecommendationJSON
	if ex != nil {
		picks = ex.Picks
	}
	return recommendResponse(ctx, req, picks, workers)
}

// recommendResponse wraps the picks of req's explore answer as the
// /v1/recommend response. An answer with no picks — nothing feasible
// or nothing buildable — goes to core.RecommendContext, whose
// unpruned sweep words the error with the closest misses.
func recommendResponse(ctx context.Context, req core.Requirements, picks []RecommendationJSON, workers int) (*RecommendResponse, error) {
	if len(picks) == 0 {
		recs, err := core.RecommendContext(ctx, req, core.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			picks = append(picks, recommendationJSON(r))
		}
	}
	return &RecommendResponse{
		SchemaVersion: SchemaVersion,
		Request:       req,
		Key:           HashKey("recommend", req.CanonicalKey()),
		Picks:         picks,
	}, nil
}

// parsePolicy maps a policy name to its sched.Policy (the scenario
// package owns the vocabulary, shared with scenario documents).
func parsePolicy(name string) (sched.Policy, error) {
	return scenario.ParsePolicy(name)
}

// canonicalKey is the simulate request's cache identity: the spec key
// plus every option and client field in declared order. Client-chosen
// strings are quoted (canonString) so a name containing the ',' or '|'
// separators cannot shift the positional fields and collide with a
// different request.
//
//cachekey:fields v2 Clients,Options,Spec
func (r SimulateRequest) canonicalKey() string {
	var b strings.Builder
	b.WriteString("sim/v2|")
	b.WriteString(r.Spec.CanonicalKey())
	fmt.Fprintf(&b, "|policy=%s|closed=%t|window=%d", canonString(r.Options.Policy), r.Options.ClosedPage, r.Options.ReorderWindow)
	for _, c := range r.Clients {
		fmt.Fprintf(&b, "|client=%s,%s,%d,%s,%d,%d,%d,%d,%d,%d,%t,%s",
			canonString(c.Name), canonString(c.Kind), c.Bits, canonFloat(c.RateGBps), c.Count,
			c.StartB, c.StrideB, c.LimitB, c.WindowB, c.Seed, c.Write,
			canonFloat(c.LatencyBudgetNs))
	}
	return b.String()
}

// Violations lists every constraint the simulate request violates.
func (r SimulateRequest) Violations(maxRequests int64) []string {
	var v []string
	if len(r.Clients) == 0 {
		v = append(v, "at least one client is required")
	}
	var total int64
	for i, c := range r.Clients {
		v = append(v, c.Violations(i, maxRequests, r.Spec.InterfaceBits)...)
		total += int64(c.Count)
	}
	if maxRequests > 0 && total > maxRequests {
		v = append(v, fmt.Sprintf("total request count %d exceeds the per-request limit %d", total, maxRequests))
	}
	if _, err := parsePolicy(r.Options.Policy); err != nil {
		v = append(v, err.Error())
	}
	if r.Options.ReorderWindow < 0 {
		v = append(v, fmt.Sprintf("reorder window must be non-negative, got %d", r.Options.ReorderWindow))
	}
	return v
}

// BuildSimulate runs the event-driven controller simulation for the
// request — the /v1/simulate response.
func BuildSimulate(req SimulateRequest) (*SimulateResponse, error) {
	m, err := edram.Build(req.Spec)
	if err != nil {
		return nil, err
	}
	res, err := simulate(m, req.Options, req.Clients, nil)
	if err != nil {
		return nil, err
	}
	resp := &SimulateResponse{
		SchemaVersion:     SchemaVersion,
		Spec:              req.Spec,
		Key:               HashKey("simulate", req.canonicalKey()),
		Policy:            res.Policy.String(),
		PeakGBps:          res.PeakGBps,
		SustainedGBps:     res.SustainedGBps,
		SustainedFraction: res.SustainedFraction,
		HitRate:           res.HitRate,
		DurationNs:        res.DurationNs,
		Clients:           []ClientResultJSON{},
	}
	for _, cr := range res.Clients {
		resp.Clients = append(resp.Clients, ClientResultJSON{
			Name:         cr.Name,
			Requests:     cr.Stats.Count,
			AchievedGBps: cr.AchievedGBps,
			BitsMoved:    cr.BitsMoved,
			MeanNs:       cr.Stats.MeanNs,
			P50Ns:        cr.Stats.P50Ns,
			P95Ns:        cr.Stats.P95Ns,
			P99Ns:        cr.Stats.P99Ns,
			MaxNs:        cr.Stats.MaxNs,
			MaxFIFODepth: cr.Stats.MaxFIFODepth,
		})
	}
	return resp, nil
}

// simulate runs the event-driven controller for the clients on macro
// m — the one simulation setup /v1/simulate and trial campaigns share.
// rel, when non-nil, arms fault injection.
func simulate(m *edram.Macro, opts SimulateOptions, specs []ClientSpec, rel *reliab.Config) (sched.Result, error) {
	policy, err := parsePolicy(opts.Policy)
	if err != nil {
		return sched.Result{}, err
	}
	clients := make([]sched.Client, len(specs))
	for i, c := range specs {
		clients[i] = sched.Client{
			Name:            c.Name,
			Gen:             c.Generator(i, m.Geometry.InterfaceBits),
			LatencyBudgetNs: c.LatencyBudgetNs,
		}
	}
	cfg := m.DeviceConfig()
	mp, err := mapping.NewBankInterleaved(mapping.Geometry{Banks: cfg.Banks, RowsBank: cfg.RowsPerBank, PageBytes: cfg.PageBits / 8})
	if err != nil {
		return sched.Result{}, err
	}
	return sched.RunWithOptions(cfg, mp, sched.Options{
		Policy:        policy,
		ClosedPage:    opts.ClosedPage,
		ReorderWindow: opts.ReorderWindow,
		Reliability:   rel,
	}, clients)
}

// BuildDatasheet constructs the macro and renders its datasheet — the
// /v1/datasheet response.
func BuildDatasheet(spec edram.Spec) (*DatasheetResponse, error) {
	m, err := edram.Build(spec)
	if err != nil {
		return nil, err
	}
	return &DatasheetResponse{
		SchemaVersion:        SchemaVersion,
		Spec:                 spec,
		Key:                  HashKey("datasheet", spec.CanonicalKey()),
		ClockMHz:             m.ClockMHz,
		AreaMm2:              m.Area.TotalMm2,
		EfficiencyMbitPerMm2: m.Area.EfficiencyMbitPerMm2,
		PeakGBps:             m.PeakBandwidthGBps(),
		FillFrequencyHz:      m.FillFrequencyHz(),
		Banks:                m.Geometry.Banks,
		RowsPerBank:          m.RowsPerBank(),
		PageBits:             m.Geometry.PageBits,
		Text:                 m.Datasheet(),
	}, nil
}

// canonicalKey is the experiments request's cache identity: the sorted
// id filter, each id quoted so one containing ',' cannot render as two.
//
//cachekey:fields v2 IDs
func (r ExperimentsRequest) canonicalKey() string {
	ids := make([]string, len(r.IDs))
	for i, id := range r.IDs {
		ids[i] = canonString(id)
	}
	sort.Strings(ids)
	return "exp/v2|ids=" + strings.Join(ids, ",")
}

// BuildExperiments regenerates the experiment suite (filtered to ids
// when given) on workers workers — the /v1/experiments response.
func BuildExperiments(ctx context.Context, req ExperimentsRequest, workers int) (*ExperimentsResponse, error) {
	all, err := experiments.AllContext(ctx, workers, nil)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, id := range req.IDs {
		want[id] = true
	}
	resp := &ExperimentsResponse{
		SchemaVersion: SchemaVersion,
		Key:           HashKey("experiments", req.canonicalKey()),
		Experiments:   []ExperimentJSON{},
	}
	matched := map[string]bool{}
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		matched[e.ID] = true
		ej := ExperimentJSON{ID: e.ID, Title: e.Title, Findings: []FindingJSON{}}
		for _, f := range e.Findings {
			ej.Findings = append(ej.Findings, FindingJSON{Name: f.Name, Value: f.Value, Unit: f.Unit})
		}
		var tb strings.Builder
		if e.Table != nil {
			if err := e.Table.Render(&tb); err != nil {
				return nil, err
			}
		}
		ej.Table = tb.String()
		resp.Experiments = append(resp.Experiments, ej)
	}
	for _, id := range req.IDs {
		if !matched[id] {
			return nil, fmt.Errorf("unknown experiment id %q", id)
		}
	}
	return resp, nil
}
