// The async job API: POST /v1/jobs runs the expensive computations —
// full design-space explores, Monte-Carlo reliability campaigns,
// scenario evaluations — outside the request/response cycle, with
// progress reporting, cooperative cancellation (DELETE) and
// range-partitioned checkpoints. Checkpoints lean on the engine's
// Seq-determinism: a killed and restarted daemon resumes an explore at
// its persisted watermark and still produces a response byte-identical
// to an uninterrupted run (the parity test in jobsapi_test.go pins the
// bytes), because the sweep order, the frontier contents and the
// pruned counter are all arrival-order-independent.

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"edram/internal/core"
	"edram/internal/edram"
	"edram/internal/jobs"
	"edram/internal/reliab"
	"edram/internal/scenario"
)

// JobRequest is the POST /v1/jobs body: a kind plus exactly the
// matching payload.
type JobRequest struct {
	SchemaVersion int `json:"schema_version,omitempty"`
	// Kind selects the computation: "explore", "trials" or "scenario".
	Kind string `json:"kind"`
	// Explore runs the design-space exploration (the async form of
	// POST /v1/explore, sharing its result bytes and cache key). Like
	// the endpoint, a fresh job is served by the delta tier when the
	// daemon retains an eligible same-structure sweep.
	Explore *core.Requirements `json:"explore,omitempty"`
	// Trials runs a Monte-Carlo fault-injection campaign over the
	// controller simulation.
	Trials *TrialsJobRequest `json:"trials,omitempty"`
	// Scenario evaluates a declarative scenario document (the async
	// form of POST /v1/scenario).
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// ReliabilityJSON is the wire form of the fault-injection knobs
// (reliab.Config minus the per-trial seed, which the campaign derives).
type ReliabilityJSON struct {
	ECC                  string  `json:"ecc,omitempty"`
	MeanDefectsPerBank   float64 `json:"mean_defects_per_bank,omitempty"`
	RetentionTailPerBank float64 `json:"retention_tail_per_bank,omitempty"`
	SoftErrorsPerMAccess float64 `json:"soft_errors_per_m_access,omitempty"`
	SpareRowsPerBank     int     `json:"spare_rows_per_bank,omitempty"`
	MaxRetries           int     `json:"max_retries,omitempty"`
	BootScreen           bool    `json:"boot_screen,omitempty"`
}

// config materializes the wire knobs into a reliab.Config for the
// given derived trial seed.
func (r ReliabilityJSON) config(seed int64) (reliab.Config, error) {
	ecc, err := reliab.ParseECC(r.ECC)
	if err != nil {
		return reliab.Config{}, err
	}
	return reliab.Config{
		Seed:                 seed,
		ECC:                  ecc,
		MeanDefectsPerBank:   r.MeanDefectsPerBank,
		RetentionTailPerBank: r.RetentionTailPerBank,
		SoftErrorsPerMAccess: r.SoftErrorsPerMAccess,
		SpareRowsPerBank:     r.SpareRowsPerBank,
		MaxRetries:           r.MaxRetries,
		BootScreen:           r.BootScreen,
	}, nil
}

// TrialsJobRequest describes one reliability campaign: the simulate
// request to repeat, the fault process to arm, and how many
// independent trials to draw.
type TrialsJobRequest struct {
	Spec        edram.Spec      `json:"spec"`
	Options     SimulateOptions `json:"options"`
	Clients     []ClientSpec    `json:"clients"`
	Reliability ReliabilityJSON `json:"reliability"`
	Trials      int             `json:"trials"`
	Seed        int64           `json:"seed"`
}

// maxCampaignTrials bounds one campaign: each trial is a full
// controller simulation, so the cap is a worst-case-runtime guard, not
// a memory one.
const maxCampaignTrials = 4096

// Violations lists every constraint the campaign request breaks.
func (r TrialsJobRequest) Violations(maxRequests int64) []string {
	v := SimulateRequest{Spec: r.Spec, Options: r.Options, Clients: r.Clients}.Violations(maxRequests)
	if r.Trials < 1 || r.Trials > maxCampaignTrials {
		v = append(v, fmt.Sprintf("trials must be in [1, %d], got %d", maxCampaignTrials, r.Trials))
	}
	if _, err := reliab.ParseECC(r.Reliability.ECC); err != nil {
		v = append(v, err.Error())
	}
	if r.Reliability.MeanDefectsPerBank < 0 || r.Reliability.RetentionTailPerBank < 0 || r.Reliability.SoftErrorsPerMAccess < 0 {
		v = append(v, "fault rates must be non-negative")
	}
	if r.Reliability.SpareRowsPerBank < 0 || r.Reliability.MaxRetries < 0 {
		v = append(v, "spare rows and retry bound must be non-negative")
	}
	return v
}

// canonicalKey is the campaign's cache/job identity.
//
//cachekey:fields v1 Clients,Options,Reliability,Seed,Spec,Trials
func (r TrialsJobRequest) canonicalKey() string {
	var b strings.Builder
	b.WriteString("trials/v1|")
	b.WriteString(SimulateRequest{Spec: r.Spec, Options: r.Options, Clients: r.Clients}.canonicalKey())
	rel := r.Reliability
	fmt.Fprintf(&b, "|rel=%s,%s,%s,%s,%d,%d,%t|trials=%d|seed=%d",
		canonString(rel.ECC), canonFloat(rel.MeanDefectsPerBank), canonFloat(rel.RetentionTailPerBank),
		canonFloat(rel.SoftErrorsPerMAccess), rel.SpareRowsPerBank, rel.MaxRetries, rel.BootScreen,
		r.Trials, r.Seed)
	return b.String()
}

// TrialJSON is one campaign member's reliability outcome.
type TrialJSON struct {
	Trial             int     `json:"trial"`
	Seed              int64   `json:"seed"`
	InjectedFaults    int     `json:"injected_faults"`
	WeakCells         int     `json:"weak_cells"`
	DefectFingerprint uint64  `json:"defect_fingerprint"`
	FaultyAccesses    int64   `json:"faulty_accesses"`
	Corrected         int64   `json:"corrected"`
	RetryRecovered    int64   `json:"retry_recovered"`
	Remapped          int64   `json:"remapped"`
	Offlined          int64   `json:"offlined"`
	Uncorrected       int64   `json:"uncorrected"`
	Silent            int64   `json:"silent"`
	SparesUsed        int     `json:"spares_used"`
	OfflinedRows      int     `json:"offlined_rows"`
	CapacityLossFrac  float64 `json:"capacity_loss_frac"`
}

// TrialsAggregateJSON is the campaign-level rollup.
type TrialsAggregateJSON struct {
	TotalInjected        int64   `json:"total_injected"`
	TotalUncorrected     int64   `json:"total_uncorrected"`
	TotalSilent          int64   `json:"total_silent"`
	UncorrectedTrials    int     `json:"uncorrected_trials"`
	MeanCapacityLossFrac float64 `json:"mean_capacity_loss_frac"`
}

// TrialsResponse is the terminal result of a "trials" job.
type TrialsResponse struct {
	SchemaVersion int                 `json:"schema_version"`
	Key           string              `json:"key"`
	Trials        int                 `json:"trials"`
	Seed          int64               `json:"seed"`
	Results       []TrialJSON         `json:"results"`
	Aggregate     TrialsAggregateJSON `json:"aggregate"`
}

// JobStatusResponse is the status schema of POST /v1/jobs and
// GET /v1/jobs/{id}.
type JobStatusResponse struct {
	SchemaVersion int           `json:"schema_version"`
	ID            string        `json:"id"`
	Kind          string        `json:"kind"`
	Key           string        `json:"key"`
	State         string        `json:"state"`
	Error         string        `json:"error,omitempty"`
	Progress      jobs.Progress `json:"progress"`
	// ResultPath is set once the job succeeded: GET it for the exact
	// result bytes the synchronous endpoint would have served.
	ResultPath string `json:"result_path,omitempty"`
}

// JobListResponse is the GET /v1/jobs schema (submission order).
type JobListResponse struct {
	SchemaVersion int                 `json:"schema_version"`
	Jobs          []JobStatusResponse `json:"jobs"`
}

func jobStatus(snap jobs.Snapshot) JobStatusResponse {
	out := JobStatusResponse{
		SchemaVersion: SchemaVersion,
		ID:            snap.ID,
		Kind:          snap.Kind,
		Key:           snap.Key,
		State:         string(snap.State),
		Error:         snap.Error,
		Progress:      snap.Progress,
	}
	if snap.HasResult {
		out.ResultPath = "/v1/jobs/" + snap.ID + "/result"
	}
	return out
}

// compiledJob is a validated, ready-to-submit job.
type compiledJob struct {
	id   string // content-derived: hex digest of the canonical identity
	kind string
	key  string // wire-visible cache key
	run  jobs.RunFunc
}

// compileJob validates a JobRequest and binds its runner. The id is
// derived from the canonical identity alone, so re-POSTing the same
// work attaches to the existing job instead of duplicating it.
func (s *Server) compileJob(req JobRequest) (compiledJob, error) {
	// kind is re-stated as a server-side literal in each validated arm
	// (never req.Kind, which is raw client JSON): it becomes the
	// "kind" metric label, and labels must come from closed sets.
	var kind, canonical string
	var run jobs.RunFunc
	switch req.Kind {
	case "explore":
		if req.Explore == nil {
			return compiledJob{}, errors.New(`job kind "explore" requires the explore payload`)
		}
		if v := req.Explore.Violations(); len(v) > 0 {
			return compiledJob{}, violationsError(v)
		}
		kind = "explore"
		canonical = "job/v1|kind=explore|" + req.Explore.CanonicalKey()
		run = s.runExploreJob(*req.Explore)
	case "trials":
		if req.Trials == nil {
			return compiledJob{}, errors.New(`job kind "trials" requires the trials payload`)
		}
		if v := req.Trials.Violations(s.cfg.MaxSimRequests); len(v) > 0 {
			return compiledJob{}, violationsError(v)
		}
		kind = "trials"
		canonical = "job/v1|kind=trials|" + req.Trials.canonicalKey()
		run = s.runTrialsJob(*req.Trials)
	case "scenario":
		if req.Scenario == nil {
			return compiledJob{}, errors.New(`job kind "scenario" requires the scenario payload`)
		}
		if v := req.Scenario.Violations(s.cfg.MaxSimRequests); len(v) > 0 {
			return compiledJob{}, scenario.ViolationsError(v)
		}
		kind = "scenario"
		canonical = "job/v1|kind=scenario|" + req.Scenario.CanonicalKey()
		run = s.runScenarioJob(req.Scenario)
	default:
		return compiledJob{}, fmt.Errorf("unknown job kind %q (want explore, trials or scenario)", req.Kind)
	}
	key := HashKey("job", canonical)
	// The job id is the bare digest (path- and filename-safe).
	id := key[strings.IndexByte(key, ':')+1:]
	return compiledJob{id: id, kind: kind, key: key, run: run}, nil
}

// resolveJob rebuilds a runner from a persisted job request — the
// jobs.Resolver the daemon passes to Resume on startup.
func (s *Server) resolveJob(kind string, raw json.RawMessage) (jobs.RunFunc, error) {
	var req struct {
		JobRequest
		// Delta is the payload of a job of the retired kind "delta",
		// left unfinished by an older daemon. It shared the explore
		// checkpoint schema, so it resumes as an explore of it.
		Delta *core.Requirements `json:"delta"`
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("persisted job request: %w", err)
	}
	if req.Kind != kind {
		return nil, fmt.Errorf("persisted job kind %q does not match record %q", req.Kind, kind)
	}
	if kind == "delta" {
		req.Kind, req.Explore = "explore", req.Delta
	}
	compiled, err := s.compileJob(req.JobRequest)
	if err != nil {
		return nil, err
	}
	return compiled.run, nil
}

// ResumeJobs restarts persisted unfinished jobs after a daemon
// restart. Call before serving traffic.
func (s *Server) ResumeJobs() (int, error) {
	if s.jobsErr != nil {
		return 0, s.jobsErr
	}
	return s.jobsStore.Resume(s.resolveJob)
}

// submitJob routes a compiled job into the store and writes the
// status response (202 on creation, 200 when attaching to an existing
// job, 503 when the store sheds).
func (s *Server) submitJob(w http.ResponseWriter, req JobRequest) {
	if s.jobsErr != nil {
		writeError(w, http.StatusServiceUnavailable, s.jobsErr)
		return
	}
	compiled, err := s.compileJob(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	raw, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	snap, created, err := s.jobsStore.Submit(compiled.id, compiled.kind, compiled.key, raw, compiled.run)
	if errors.Is(err, jobs.ErrOverloaded) {
		oe := &overloadError{reason: "jobs", detail: err.Error(), retryAfter: s.cfg.RequestTimeout}
		s.shedTotal("/v1/jobs", oe.reason).Inc()
		writeOverload(w, oe)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if created {
		s.jobsSubmitted(compiled.kind).Inc()
		status = http.StatusAccepted
	}
	w.Header().Set("Location", "/v1/jobs/"+snap.ID)
	writeJSON(w, status, jobStatus(snap))
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submitJob(w, req)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	resp := JobListResponse{SchemaVersion: SchemaVersion, Jobs: []JobStatusResponse{}}
	for _, snap := range s.jobsStore.List() {
		resp.Jobs = append(resp.Jobs, jobStatus(snap))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobsStore.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(snap))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, b, ok := s.jobsStore.Result(id)
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	switch snap.State {
	case jobs.StateSucceeded:
		// Serve the stored bytes verbatim: they are exactly what the
		// synchronous endpoint would have written, byte for byte.
		writeBytes(w, b)
	case jobs.StateFailed:
		writeError(w, http.StatusUnprocessableEntity, errors.New(snap.Error))
	case jobs.StateCancelled:
		writeError(w, http.StatusGone, errors.New("job was cancelled"))
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is still %s", id, snap.State))
	}
}

func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobsStore.Delete(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled", "id": id})
}

// ---- runners ----------------------------------------------------------

// jobState is a checkpointed job's resumable state: a watermark into
// the job's steps plus what the steps below it folded in. Its JSON
// form is the ckpt/v1 record's state blob; the request it runs (not
// persisted) is bound when the job starts.
type jobState interface {
	// check reports the first invariant a decoded state breaks as the
	// state the runner writes after its first next steps.
	check() error
	// span returns the watermark and the job's step count.
	span() (next, total int)
	// step runs steps [from, to) on workers and folds them in.
	step(ctx context.Context, from, to, workers int) error
	// progress is the wire progress at the watermark.
	progress() jobs.Progress
}

// resumeState decodes a job's checkpoint over st, the state of its
// request before any step, and leaves st fresh when there is none (a
// field the checkpoint omits keeps its fresh value). A checkpoint that
// cannot be what the runner wrote is refused: resuming
// it would finish with bytes no uninterrupted run produces, and
// explore and scenario results fill the synchronous endpoints' cache.
func resumeState(st jobState, raw []byte) error {
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, st); err != nil {
		return fmt.Errorf("checkpoint state: %w", err)
	}
	if err := st.check(); err != nil {
		return fmt.Errorf("checkpoint state rejected: %w", err)
	}
	return nil
}

// runSteps is the one checkpointed step loop of every job kind. It
// resumes st from the job's checkpoint and runs the remaining steps in
// windows of at most every. Each window draws its workers from the
// pool (so a long job holds none between checkpoints), then publishes
// progress and writes the checkpoint before the next one starts.
func (s *Server) runSteps(ctx context.Context, h *jobs.Handle, st jobState, every int) error {
	if err := resumeState(st, h.Resumed()); err != nil {
		return err
	}
	for from, total := st.span(); from < total; from, total = st.span() {
		workers, release, err := s.acquireWorkers(ctx, s.cfg.Workers)
		if err != nil {
			return err
		}
		err = st.step(ctx, from, min(from+every, total), workers)
		release()
		if err != nil {
			return err
		}
		h.SetProgress(st.progress())
		raw, err := json.Marshal(st)
		if err == nil {
			err = h.Checkpoint(raw)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// finishJob is every runner's exit. A cancellation that lands after
// the last step still stops the job: its checkpoint stays on disk for
// the next life and nothing is cached. Otherwise resp is encoded as the
// result and, under a non-empty fillKey, cross-fills the synchronous
// endpoint's cache, so a later request of the same work is a hit on
// the job's bytes.
func (s *Server) finishJob(ctx context.Context, resp any, fillKey string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := Encode(resp)
	if err != nil {
		return nil, err
	}
	if fillKey != "" {
		s.fill(fillKey, b)
	}
	return b, nil
}

// exploreJobState is the explore runner's checkpoint: the Seq
// watermark, the accumulated sweep counters, and the partial frontier.
// Everything downstream (frontier membership, pruned count, canonical
// ordering) is arrival-order-independent, so resuming from (NextSeq,
// Frontier, counters) reproduces the uninterrupted run exactly.
type exploreJobState struct {
	NextSeq    int             `json:"next_seq"`
	Total      int             `json:"total"`
	Enumerated int64           `json:"enumerated"`
	Built      int64           `json:"built"`
	Infeasible int64           `json:"infeasible"`
	Pruned     int64           `json:"pruned"`
	Frontier   []CandidateJSON `json:"frontier"`

	req core.Requirements
}

// newExploreState is the state of a sweep of req before its first
// partition.
func newExploreState(req core.Requirements) *exploreJobState {
	return &exploreJobState{Total: core.SweepCount(req), req: req}
}

// check reports the first invariant st breaks as the state after
// sweeping [0, NextSeq) of the request: every point in the prefix is
// enumerated once, and every built point is infeasible, on the front,
// or pruned.
func (st *exploreJobState) check() error {
	switch total := core.SweepCount(st.req); {
	case st.Total != total:
		return fmt.Errorf("total %d, want the request's %d points", st.Total, total)
	case st.NextSeq < 0 || st.NextSeq > st.Total:
		return fmt.Errorf("next_seq %d outside [0, %d]", st.NextSeq, st.Total)
	case st.Enumerated != int64(st.NextSeq):
		return fmt.Errorf("enumerated %d, want next_seq %d", st.Enumerated, st.NextSeq)
	case st.Infeasible < 0 || st.Infeasible > st.Built || st.Built > st.Enumerated:
		return fmt.Errorf("counters built %d, infeasible %d: want 0 <= infeasible <= built <= enumerated %d",
			st.Built, st.Infeasible, st.Enumerated)
	case st.Pruned < 0 || st.Pruned != st.Built-st.Infeasible-int64(len(st.Frontier)):
		return fmt.Errorf("pruned %d, want built - infeasible - frontier = %d",
			st.Pruned, st.Built-st.Infeasible-int64(len(st.Frontier)))
	}
	for _, c := range st.Frontier {
		if c.Seq < 0 || c.Seq >= st.NextSeq {
			return fmt.Errorf("frontier seq %d outside the swept prefix [0, %d)", c.Seq, st.NextSeq)
		}
	}
	return nil
}

func (st *exploreJobState) span() (int, int) { return st.NextSeq, st.Total }

// step sweeps the Seq partition [from, to) and folds it in.
func (st *exploreJobState) step(ctx context.Context, from, to, workers int) error {
	part, err := sweepPartition(ctx, st.req, from, to, workers)
	if err != nil {
		return err
	}
	acc := st.sweep().Merge(part)
	st.NextSeq = to
	st.Enumerated, st.Built, st.Infeasible, st.Pruned = acc.Enumerated, acc.Built, acc.Infeasible, acc.Pruned()
	st.Frontier = make([]CandidateJSON, len(acc.Frontier))
	for i, c := range acc.Frontier {
		st.Frontier[i] = candidateJSON(c)
	}
	return nil
}

func (st *exploreJobState) progress() jobs.Progress {
	return jobs.Progress{
		Done:       int64(st.NextSeq),
		Total:      int64(st.Total),
		Built:      st.Built,
		Infeasible: st.Infeasible,
		Pruned:     st.Pruned,
		FrontSize:  len(st.Frontier),
	}
}

// sweep is the swept prefix as a core.SweepResult; its Merge() puts
// the front in the canonical order the response needs.
func (st *exploreJobState) sweep() core.SweepResult {
	acc := core.SweepResult{Enumerated: st.Enumerated, Built: st.Built, Infeasible: st.Infeasible}
	for _, cj := range st.Frontier {
		acc.Frontier = append(acc.Frontier, candidateFromJSON(cj))
	}
	return acc
}

// candidateFromJSON rebuilds a core.Candidate from its wire form. The
// stub Macro carries the clock alone: dominance, canonical ordering
// and quantization read only the candidate's value fields, and the
// wire encoding reads Macro.ClockMHz — nothing else survives into the
// response, which is what makes checkpointed frontiers byte-exact.
func candidateFromJSON(cj CandidateJSON) core.Candidate {
	return core.Candidate{
		Seq:            cj.Seq,
		Spec:           cj.Spec,
		Macro:          &edram.Macro{ClockMHz: cj.ClockMHz},
		Macros:         cj.Macros,
		AreaMm2:        cj.AreaMm2,
		PowerMW:        cj.PowerMW,
		PeakGBps:       cj.PeakGBps,
		SustainedGBps:  cj.SustainedGBps,
		DieYield:       cj.DieYield,
		CostUSD:        cj.CostUSD,
		CostPerMbitUSD: cj.CostPerMbitUSD,
		Feasible:       cj.Feasible,
		Reasons:        cj.Reasons,
	}
}

// runExploreJob returns the explore job runner. A fresh job is served
// by the delta tier in one step when the daemon retains an eligible
// state, as handleExplore does. Otherwise it runs the checkpointed
// sweep in partitions of at most JobCheckpointEvery points; a daemon
// killed mid-run resumes from NextSeq.
func (s *Server) runExploreJob(req core.Requirements) jobs.RunFunc {
	return func(ctx context.Context, h *jobs.Handle) ([]byte, error) {
		if err := req.Validate(); err != nil {
			return nil, err
		}
		var e *deltaEntry
		if len(h.Resumed()) == 0 {
			e = s.deltaLookup(req)
		}
		var resp *ExploreResponse
		var err error
		if e != nil {
			resp, err = s.deltaExploreJob(ctx, h, e, req)
		} else {
			st := newExploreState(req)
			if err = s.runSteps(ctx, h, st, s.cfg.JobCheckpointEvery); err == nil {
				resp, err = exploreResponseFromMerged(req, st.sweep().Merge())
			}
		}
		if err != nil {
			return nil, err
		}
		return s.finishJob(ctx, resp, resp.Key)
	}
}

// deltaExploreJob serves a fresh explore job from a retained delta
// state, with no intermediate checkpoints: the delta path is far
// shorter than the sweep it replaces.
func (s *Server) deltaExploreJob(ctx context.Context, h *jobs.Handle, e *deltaEntry, req core.Requirements) (*ExploreResponse, error) {
	workers, release, err := s.acquireWorkers(ctx, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	resp, err := s.serveExploreDelta(ctx, e, req, workers)
	release()
	if err != nil {
		return nil, err
	}
	total := int64(core.SweepCount(req))
	h.SetProgress(jobs.Progress{
		Done:       total,
		Total:      total,
		Built:      resp.Built,
		Infeasible: resp.Infeasible,
		Pruned:     resp.Pruned,
		FrontSize:  len(resp.Frontier),
	})
	return resp, nil
}

// trialsJobState is the campaign runner's checkpoint: the absolute
// trial watermark and the per-trial outcomes so far. Seeds derive from
// the absolute index (reliab.TrialSeed), so disjoint trial ranges
// concatenate into exactly the uninterrupted campaign.
type trialsJobState struct {
	NextTrial int         `json:"next_trial"`
	Results   []TrialJSON `json:"results"`

	req TrialsJobRequest
	m   *edram.Macro // built from req.Spec
}

// jobTrialsChunk is the campaign checkpoint cadence: small enough that
// a restart rarely repeats more than a few simulations, large enough
// that checkpoint I/O stays negligible next to a trial's compute.
const jobTrialsChunk = 8

// check requires st to be the first NextTrial outcomes of the
// campaign, in trial order.
func (st *trialsJobState) check() error {
	if len(st.Results) != st.NextTrial || st.NextTrial > st.req.Trials {
		return fmt.Errorf("next_trial %d with %d results, want equal and <= %d trials",
			st.NextTrial, len(st.Results), st.req.Trials)
	}
	for i, r := range st.Results {
		if r.Trial != i {
			return fmt.Errorf("result %d is trial %d", i, r.Trial)
		}
	}
	return nil
}

func (st *trialsJobState) span() (int, int) { return st.NextTrial, st.req.Trials }

// step runs campaign members [from, to), each a controller simulation
// with the fault process armed under its derived seed.
func (st *trialsJobState) step(ctx context.Context, from, to, workers int) error {
	part, err := reliab.RunTrialsRange(from, to, workers, st.req.Seed, func(trial int, seed int64) (reliab.Stats, []reliab.FaultEvent, error) {
		if err := ctx.Err(); err != nil {
			return reliab.Stats{}, nil, err
		}
		rel, err := st.req.Reliability.config(seed)
		if err != nil {
			return reliab.Stats{}, nil, err
		}
		res, err := simulate(st.m, st.req.Options, st.req.Clients, &rel)
		if err != nil {
			return reliab.Stats{}, nil, err
		}
		return *res.Reliability, nil, nil
	})
	if err != nil {
		return err
	}
	for _, tr := range part {
		st.Results = append(st.Results, trialJSON(tr))
	}
	st.NextTrial = to
	return nil
}

func (st *trialsJobState) progress() jobs.Progress {
	return jobs.Progress{Done: int64(st.NextTrial), Total: int64(st.req.Trials)}
}

// runTrialsJob returns the checkpointed campaign runner.
func (s *Server) runTrialsJob(req TrialsJobRequest) jobs.RunFunc {
	return func(ctx context.Context, h *jobs.Handle) ([]byte, error) {
		m, err := edram.Build(req.Spec)
		if err != nil {
			return nil, err
		}
		st := &trialsJobState{req: req, m: m}
		if err := s.runSteps(ctx, h, st, jobTrialsChunk); err != nil {
			return nil, err
		}
		resp := &TrialsResponse{
			SchemaVersion: SchemaVersion,
			Key:           HashKey("trials", req.canonicalKey()),
			Trials:        req.Trials,
			Seed:          req.Seed,
			Results:       st.Results,
		}
		if resp.Results == nil {
			resp.Results = []TrialJSON{}
		}
		for _, tr := range resp.Results {
			resp.Aggregate.TotalInjected += int64(tr.InjectedFaults)
			resp.Aggregate.TotalUncorrected += tr.Uncorrected
			resp.Aggregate.TotalSilent += tr.Silent
			if tr.Uncorrected > 0 || tr.Silent > 0 {
				resp.Aggregate.UncorrectedTrials++
			}
			resp.Aggregate.MeanCapacityLossFrac += tr.CapacityLossFrac
		}
		if n := len(resp.Results); n > 0 {
			resp.Aggregate.MeanCapacityLossFrac /= float64(n)
		}
		return s.finishJob(ctx, resp, "")
	}
}

func trialJSON(tr reliab.TrialResult) TrialJSON {
	return TrialJSON{
		Trial:             tr.Trial,
		Seed:              tr.Seed,
		InjectedFaults:    tr.Stats.InjectedFaults,
		WeakCells:         tr.Stats.WeakCells,
		DefectFingerprint: tr.Stats.DefectFingerprint,
		FaultyAccesses:    tr.Stats.FaultyAccesses,
		Corrected:         tr.Stats.Corrected,
		RetryRecovered:    tr.Stats.RetryRecovered,
		Remapped:          tr.Stats.Remapped,
		Offlined:          tr.Stats.Offlined,
		Uncorrected:       tr.Stats.Uncorrected,
		Silent:            tr.Stats.Silent,
		SparesUsed:        tr.Stats.SparesUsed,
		OfflinedRows:      tr.Stats.OfflinedRows,
		CapacityLossFrac:  tr.Stats.CapacityLossFrac,
	}
}

// scenarioJobState is the scenario runner's checkpoint: the level
// watermark plus the levels evaluated so far. Levels are independent,
// so per-level resumption reproduces BuildScenario exactly.
type scenarioJobState struct {
	NextLevel int                 `json:"next_level"`
	Levels    []ScenarioLevelJSON `json:"levels"`

	compiled *scenario.Compiled
}

// check requires st to be the first NextLevel levels of the scenario.
func (st *scenarioJobState) check() error {
	if len(st.Levels) != st.NextLevel || st.NextLevel > len(st.compiled.Levels) {
		return fmt.Errorf("next_level %d with %d levels, want equal and <= %d levels",
			st.NextLevel, len(st.Levels), len(st.compiled.Levels))
	}
	return nil
}

func (st *scenarioJobState) span() (int, int) { return st.NextLevel, len(st.compiled.Levels) }

// step evaluates hierarchy levels [from, to).
func (st *scenarioJobState) step(ctx context.Context, from, to, workers int) error {
	for i := from; i < to; i++ {
		lj, err := buildScenarioLevel(ctx, st.compiled, i, workers)
		if err != nil {
			return err
		}
		st.Levels = append(st.Levels, lj)
	}
	st.NextLevel = to
	return nil
}

func (st *scenarioJobState) progress() jobs.Progress {
	return jobs.Progress{Done: int64(st.NextLevel), Total: int64(len(st.compiled.Levels))}
}

// runScenarioJob returns the checkpointed scenario runner: one step
// per hierarchy level.
func (s *Server) runScenarioJob(scn *scenario.Scenario) jobs.RunFunc {
	return func(ctx context.Context, h *jobs.Handle) ([]byte, error) {
		compiled, err := scn.Compile()
		if err != nil {
			return nil, err
		}
		st := &scenarioJobState{compiled: compiled}
		if err := s.runSteps(ctx, h, st, 1); err != nil {
			return nil, err
		}
		resp := &ScenarioResponse{
			SchemaVersion: SchemaVersion,
			Name:          scn.Name,
			Key:           HashKey("scenario", scn.CanonicalKey()),
			Levels:        st.Levels,
		}
		if resp.Levels == nil {
			resp.Levels = []ScenarioLevelJSON{}
		}
		return s.finishJob(ctx, resp, resp.Key)
	}
}
