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
	snap, ok := s.jobsStore.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	switch snap.State {
	case jobs.StateSucceeded:
		// Serve the stored bytes verbatim: they are exactly what the
		// synchronous endpoint would have written, byte for byte.
		b, _ := s.jobsStore.Result(id)
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

// runExploreJob returns the explore job runner. A fresh job is
// served by the delta tier in one step when the daemon retains an
// eligible state, as handleExplore does. Otherwise it sweeps: the Seq
// range is planned into partitions of at most JobCheckpointEvery
// points, swept in order, and each partition's result is folded into
// the checkpoint before the next one starts. A daemon killed mid-run
// resumes from NextSeq.
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
			resp, err = s.sweepExploreJob(ctx, h, req)
		}
		if err != nil {
			return nil, err
		}
		b, err := Encode(resp)
		if err != nil {
			return nil, err
		}
		// Cross-fill the result cache: a later POST /v1/explore of the
		// same requirements is a hit on the job's bytes.
		s.fill(resp.Key, b)
		return b, nil
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

// sweepExploreJob is the checkpointed sweep of an explore job, resumed
// from the job's last checkpoint when it has one. Workers are drawn
// from the pool per partition, so a long job holds none between
// checkpoints.
func (s *Server) sweepExploreJob(ctx context.Context, h *jobs.Handle, req core.Requirements) (*ExploreResponse, error) {
	st, err := resumeExploreState(req, h.Resumed())
	if err != nil {
		return nil, err
	}
	acc := core.SweepResult{Enumerated: st.Enumerated, Built: st.Built, Infeasible: st.Infeasible}
	for _, cj := range st.Frontier {
		acc.Frontier = append(acc.Frontier, candidateFromJSON(cj))
	}
	// Folding the checkpointed front alone puts it in canonical order,
	// which the response needs when no partition is left to sweep.
	acc = acc.Merge()
	for _, p := range s.jobPlan(st.NextSeq, st.Total) {
		workers, release, err := s.acquireWorkers(ctx, s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		part, err := sweepPartition(ctx, req, p.From, p.To, workers)
		release()
		if err != nil {
			return nil, err
		}
		acc = acc.Merge(part)
		st = exploreJobState{
			NextSeq:    p.To,
			Total:      st.Total,
			Enumerated: acc.Enumerated,
			Built:      acc.Built,
			Infeasible: acc.Infeasible,
			Pruned:     acc.Pruned(),
			Frontier:   make([]CandidateJSON, len(acc.Frontier)),
		}
		for i, c := range acc.Frontier {
			st.Frontier[i] = candidateJSON(c)
		}
		h.SetProgress(jobs.Progress{
			Done:       int64(st.NextSeq),
			Total:      int64(st.Total),
			Built:      st.Built,
			Infeasible: st.Infeasible,
			Pruned:     st.Pruned,
			FrontSize:  len(st.Frontier),
		})
		raw, err := json.Marshal(st)
		if err == nil {
			err = h.Checkpoint(raw)
		}
		if err != nil {
			return nil, err
		}
	}
	// A cancellation that lands after the last partition still stops
	// the job: its checkpoint is on disk for the next life.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return exploreResponseFromMerged(req, acc)
}

// resumeExploreState decodes an explore job's checkpoint, or starts
// from Seq 0 when there is none. A checkpoint that cannot be the
// swept prefix of req is refused: resuming it would finish with bytes
// no cold sweep produces, and the job's result fills the explore
// cache.
func resumeExploreState(req core.Requirements, raw []byte) (exploreJobState, error) {
	total := core.SweepCount(req)
	if len(raw) == 0 {
		return exploreJobState{Total: total}, nil
	}
	var st exploreJobState
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("explore checkpoint state: %w", err)
	}
	if err := st.check(total); err != nil {
		return st, fmt.Errorf("explore checkpoint state rejected: %w", err)
	}
	return st, nil
}

// check reports the first invariant st breaks as the state after
// sweeping [0, NextSeq) of a total-point sweep: every point in the
// prefix is enumerated once, and every built point is infeasible, on
// the front, or pruned.
func (st *exploreJobState) check(total int) error {
	switch {
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

// jobPart is one contiguous absolute-Seq slice [From, To) of an
// explore job's sweep; the job checkpoints after sweeping each.
type jobPart struct{ From, To int }

// jobPlan cuts an explore job's remaining Seq range [from, to) into
// consecutive parts of at most JobCheckpointEvery points.
func (s *Server) jobPlan(from, to int) []jobPart {
	var parts []jobPart
	for every := s.cfg.JobCheckpointEvery; from < to; from += every {
		parts = append(parts, jobPart{From: from, To: min(from+every, to)})
	}
	return parts
}

// trialsJobState is the campaign runner's checkpoint: the absolute
// trial watermark and the per-trial outcomes so far. Seeds derive from
// the absolute index (reliab.TrialSeed), so disjoint trial ranges
// concatenate into exactly the uninterrupted campaign.
type trialsJobState struct {
	NextTrial int         `json:"next_trial"`
	Results   []TrialJSON `json:"results"`
}

// resumeTrialsState decodes a campaign's checkpoint, or starts from
// trial 0 when there is none. A checkpoint that cannot be the first
// NextTrial outcomes of a trials-long campaign is refused: resuming it
// would finish with bytes no uninterrupted campaign produces.
func resumeTrialsState(trials int, raw []byte) (trialsJobState, error) {
	var st trialsJobState
	if len(raw) == 0 {
		return st, nil
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("trials checkpoint state: %w", err)
	}
	if len(st.Results) != st.NextTrial || st.NextTrial > trials {
		return st, fmt.Errorf("trials checkpoint state rejected: next_trial %d with %d results, want equal and <= %d trials",
			st.NextTrial, len(st.Results), trials)
	}
	for i, r := range st.Results {
		if r.Trial != i {
			return st, fmt.Errorf("trials checkpoint state rejected: result %d is trial %d", i, r.Trial)
		}
	}
	return st, nil
}

// jobTrialsChunk is the campaign checkpoint cadence: small enough that
// a restart rarely repeats more than a few simulations, large enough
// that checkpoint I/O stays negligible next to a trial's compute.
const jobTrialsChunk = 8

// runTrialsJob returns the checkpointed campaign runner.
func (s *Server) runTrialsJob(req TrialsJobRequest) jobs.RunFunc {
	return func(ctx context.Context, h *jobs.Handle) ([]byte, error) {
		m, err := edram.Build(req.Spec)
		if err != nil {
			return nil, err
		}
		runTrial := func(trial int, seed int64) (reliab.Stats, []reliab.FaultEvent, error) {
			if err := ctx.Err(); err != nil {
				return reliab.Stats{}, nil, err
			}
			rel, err := req.Reliability.config(seed)
			if err != nil {
				return reliab.Stats{}, nil, err
			}
			res, err := simulate(m, req.Options, req.Clients, &rel)
			if err != nil {
				return reliab.Stats{}, nil, err
			}
			return *res.Reliability, nil, nil
		}

		st, err := resumeTrialsState(req.Trials, h.Resumed())
		if err != nil {
			return nil, err
		}
		for st.NextTrial < req.Trials {
			to := st.NextTrial + jobTrialsChunk
			if to > req.Trials {
				to = req.Trials
			}
			workers, release, err := s.acquireWorkers(ctx, s.cfg.Workers)
			if err != nil {
				return nil, err
			}
			part, err := reliab.RunTrialsRange(st.NextTrial, to, workers, req.Seed, runTrial)
			release()
			if err != nil {
				return nil, err
			}
			for _, tr := range part {
				st.Results = append(st.Results, trialJSON(tr))
			}
			st.NextTrial = to
			h.SetProgress(jobs.Progress{Done: int64(st.NextTrial), Total: int64(req.Trials)})
			raw, err := json.Marshal(st)
			if err != nil {
				return nil, err
			}
			if err := h.Checkpoint(raw); err != nil {
				return nil, err
			}
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
		return Encode(resp)
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
}

// resumeScenarioState decodes a scenario job's checkpoint, or starts
// from level 0 when there is none. A checkpoint that cannot be the
// first NextLevel levels of a levels-long scenario is refused: the
// job's result fills the scenario cache.
func resumeScenarioState(levels int, raw []byte) (scenarioJobState, error) {
	var st scenarioJobState
	if len(raw) == 0 {
		return st, nil
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("scenario checkpoint state: %w", err)
	}
	if len(st.Levels) != st.NextLevel || st.NextLevel > levels {
		return st, fmt.Errorf("scenario checkpoint state rejected: next_level %d with %d levels, want equal and <= %d levels",
			st.NextLevel, len(st.Levels), levels)
	}
	return st, nil
}

// runScenarioJob returns the checkpointed scenario runner.
func (s *Server) runScenarioJob(scn *scenario.Scenario) jobs.RunFunc {
	return func(ctx context.Context, h *jobs.Handle) ([]byte, error) {
		compiled, err := scn.Compile()
		if err != nil {
			return nil, err
		}
		st, err := resumeScenarioState(len(compiled.Levels), h.Resumed())
		if err != nil {
			return nil, err
		}
		for st.NextLevel < len(compiled.Levels) {
			workers, release, err := s.acquireWorkers(ctx, s.cfg.Workers)
			if err != nil {
				return nil, err
			}
			lj, err := buildScenarioLevel(ctx, compiled, st.NextLevel, workers)
			release()
			if err != nil {
				return nil, err
			}
			st.Levels = append(st.Levels, lj)
			st.NextLevel++
			h.SetProgress(jobs.Progress{Done: int64(st.NextLevel), Total: int64(len(compiled.Levels))})
			raw, err := json.Marshal(st)
			if err != nil {
				return nil, err
			}
			if err := h.Checkpoint(raw); err != nil {
				return nil, err
			}
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
		b, err := Encode(resp)
		if err != nil {
			return nil, err
		}
		// Cross-fill the result cache for the synchronous scenario path.
		s.fill(HashKey("scenario", scn.CanonicalKey()), b)
		return b, nil
	}
}
