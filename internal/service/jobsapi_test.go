package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edram/internal/core"
)

// jobTestReq wraps testReq as an async explore job submission.
const jobTestReq = `{"kind":"explore","explore":` + testReq + `}`

// trialsTestReq is a small Monte-Carlo reliability campaign: a modest
// simulate request repeated 12 times with fault injection armed.
const trialsTestReq = `{"kind":"trials","trials":{
	"spec":{"capacity_mbit":16,"interface_bits":64},
	"options":{"policy":"round-robin"},
	"clients":[{"name":"cpu","kind":"sequential","rate_gbps":0.8,"count":400}],
	"reliability":{"ecc":"secded","mean_defects_per_bank":0.5,"soft_errors_per_m_access":20,"spare_rows_per_bank":2,"max_retries":1},
	"trials":12,"seed":42}}`

// do issues a bodyless request (GET/DELETE) and returns the reply.
func do(t *testing.T, client *http.Client, method, url string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// jobID extracts the id from a job status response body.
func jobID(t *testing.T, body string) string {
	t.Helper()
	var st JobStatusResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("parsing job status %q: %v", body, err)
	}
	if st.ID == "" {
		t.Fatalf("job status %q carries no id", body)
	}
	return st.ID
}

// waitJob polls GET /v1/jobs/{id} until the job reaches a terminal
// state, returning the final status.
func waitJob(t *testing.T, client *http.Client, baseURL, id string) JobStatusResponse {
	t.Helper()
	for i := 0; i < 3000; i++ {
		status, body, _ := do(t, client, "GET", baseURL+"/v1/jobs/"+id)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: status %d: %s", id, status, body)
		}
		var st JobStatusResponse
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case "succeeded", "failed", "cancelled":
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatusResponse{}
}

// TestJobCheckpointResumeByteParity is the acceptance test of the
// checkpoint/resume design: a daemon killed mid-explore and restarted
// over the same job directory finishes the job from its persisted
// watermark, and the result bytes are identical to an uninterrupted
// synchronous run.
func TestJobCheckpointResumeByteParity(t *testing.T) {
	// The reference bytes: an uninterrupted POST /v1/explore.
	ref := NewServer(Config{Workers: 2})
	tsRef := httptest.NewServer(ref)
	status, want, _ := post(t, tsRef.Client(), tsRef.URL+"/v1/explore", testReq)
	tsRef.Close()
	if status != http.StatusOK {
		t.Fatalf("reference explore: status %d: %s", status, want)
	}

	// Life 1: the same explore as a job, checkpointed every 256 of the
	// 2304 sweep points. The OnCheckpoint hook blocks the runner inside
	// its first checkpoint (already persisted at that point) while the
	// store shuts down — a deterministic mid-sweep kill: the runner
	// resumes into a cancelled context and exits without finishing.
	dir := t.TempDir()
	cfg := Config{Workers: 2, JobDir: dir, JobCheckpointEvery: 256}
	s1 := NewServer(cfg)
	firstCkpt := make(chan struct{})
	hold := make(chan struct{})
	var once sync.Once
	s1.jobsStore.OnCheckpoint = func(_ context.Context, id string, n int) {
		once.Do(func() {
			close(firstCkpt)
			<-hold
		})
	}
	ts1 := httptest.NewServer(s1)
	status, body, hdr := post(t, ts1.Client(), ts1.URL+"/v1/jobs", jobTestReq)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202: %s", status, body)
	}
	id := jobID(t, body)
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+id {
		t.Errorf("Location %q, want /v1/jobs/%s", loc, id)
	}
	<-firstCkpt
	closeErr := make(chan error, 1)
	go func() { closeErr <- s1.Close() }()
	// Close cancels the store context first and then waits for the
	// runner; give the cancellation a beat to land before releasing
	// the runner into it.
	time.Sleep(100 * time.Millisecond)
	close(hold)
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}
	ts1.Close()

	// Life 2: a fresh server over the same directory must resume
	// exactly one job and finish it.
	s2 := NewServer(cfg)
	defer s2.Close()
	n, err := s2.ResumeJobs()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if n != 1 {
		t.Fatalf("resumed %d jobs, want 1", n)
	}
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	client := ts2.Client()
	st := waitJob(t, client, ts2.URL, id)
	if st.State != "succeeded" {
		t.Fatalf("resumed job state %q (error %q), want succeeded", st.State, st.Error)
	}
	if st.Progress.Done != st.Progress.Total || st.Progress.Total != 2304 {
		t.Errorf("progress %d/%d, want 2304/2304", st.Progress.Done, st.Progress.Total)
	}
	if st.ResultPath == "" {
		t.Fatal("succeeded job reports no result path")
	}

	status, got, _ := do(t, client, "GET", ts2.URL+st.ResultPath)
	if status != http.StatusOK {
		t.Fatalf("result: status %d: %s", status, got)
	}
	if got != want {
		t.Errorf("resumed job result differs from the uninterrupted run:\n got %d bytes %.120s\nwant %d bytes %.120s",
			len(got), got, len(want), want)
	}

	// The job cross-fills the synchronous cache: the same explore is
	// now a hit with the same bytes.
	status, syncBody, hdr := post(t, client, ts2.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" || syncBody != want {
		t.Errorf("post-job sync explore: status %d, X-Cache %q, identical=%t",
			status, hdr.Get("X-Cache"), syncBody == want)
	}
}

// TestJobLifecycle covers the HTTP surface: submit (202), idempotent
// re-submit (200 attach), list, status, result, delete (and 404 after).
func TestJobLifecycle(t *testing.T) {
	srv := NewServer(Config{Workers: 2, JobDir: t.TempDir()})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	status, body, _ := post(t, client, ts.URL+"/v1/jobs", trialsTestReq)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202: %s", status, body)
	}
	id := jobID(t, body)

	// Re-submitting identical work attaches to the existing job.
	status, body2, _ := post(t, client, ts.URL+"/v1/jobs", trialsTestReq)
	if status != http.StatusOK {
		t.Fatalf("re-submit: status %d, want 200: %s", status, body2)
	}
	if jobID(t, body2) != id {
		t.Errorf("re-submit id %s, want %s", jobID(t, body2), id)
	}

	st := waitJob(t, client, ts.URL, id)
	if st.State != "succeeded" {
		t.Fatalf("job state %q (error %q), want succeeded", st.State, st.Error)
	}
	if st.Kind != "trials" || st.Progress.Done != 12 || st.Progress.Total != 12 {
		t.Errorf("terminal status kind=%q progress=%d/%d, want trials 12/12",
			st.Kind, st.Progress.Done, st.Progress.Total)
	}

	// The submission counter labels by the server-side canonical kind
	// (compileJob re-states it as a literal; the raw req.Kind string is
	// client-controlled and must never reach a metric label).
	var prom strings.Builder
	if err := srv.Metrics().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `edramd_jobs_submitted_total{kind="trials"} 1`) {
		t.Errorf("scrape missing jobs_submitted kind=trials series:\n%s", prom.String())
	}

	status, body, _ = do(t, client, "GET", ts.URL+"/v1/jobs")
	if status != http.StatusOK || !strings.Contains(body, id) {
		t.Errorf("list: status %d, contains id=%t", status, strings.Contains(body, id))
	}

	status, body, _ = do(t, client, "GET", ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusOK {
		t.Fatalf("result: status %d: %s", status, body)
	}
	var resp TrialsResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if len(resp.Results) != 12 || resp.Seed != 42 {
		t.Errorf("result has %d trials seed %d, want 12 trials seed 42", len(resp.Results), resp.Seed)
	}
	if resp.Aggregate.TotalInjected == 0 {
		t.Error("campaign with faults armed injected nothing")
	}

	status, _, _ = do(t, client, "DELETE", ts.URL+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	status, _, _ = do(t, client, "GET", ts.URL+"/v1/jobs/"+id)
	if status != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", status)
	}
	status, _, _ = do(t, client, "DELETE", ts.URL+"/v1/jobs/"+id)
	if status != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", status)
	}
}

// TestJobTrialsDeterministic pins campaign determinism: the same
// trials job on two independent servers produces byte-identical
// results (seeds derive from the absolute trial index, so the chunked
// checkpoint cadence cannot leak into the bytes).
func TestJobTrialsDeterministic(t *testing.T) {
	run := func(workers int) string {
		srv := NewServer(Config{Workers: workers})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		_, body, _ := post(t, ts.Client(), ts.URL+"/v1/jobs", trialsTestReq)
		st := waitJob(t, ts.Client(), ts.URL, jobID(t, body))
		if st.State != "succeeded" {
			t.Fatalf("state %q (error %q)", st.State, st.Error)
		}
		status, result, _ := do(t, ts.Client(), "GET", ts.URL+st.ResultPath)
		if status != http.StatusOK {
			t.Fatalf("result status %d", status)
		}
		return result
	}
	if a, b := run(1), run(4); a != b {
		t.Errorf("campaign bytes differ between 1 and 4 workers:\n%.200s\n%.200s", a, b)
	}
}

// TestJobScenarioMatchesSyncEndpoint pins the scenario job runner to
// the synchronous endpoint: same document, byte-identical response.
func TestJobScenarioMatchesSyncEndpoint(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	status, want, _ := post(t, client, ts.URL+"/v1/scenario", scenarioDoc)
	if status != http.StatusOK {
		t.Fatalf("sync scenario: status %d: %s", status, want)
	}

	_, body, _ := post(t, client, ts.URL+"/v1/jobs", `{"kind":"scenario","scenario":`+scenarioDoc+`}`)
	st := waitJob(t, client, ts.URL, jobID(t, body))
	if st.State != "succeeded" {
		t.Fatalf("scenario job state %q (error %q)", st.State, st.Error)
	}
	status, got, _ := do(t, client, "GET", ts.URL+st.ResultPath)
	if status != http.StatusOK || got != want {
		t.Errorf("scenario job result differs from sync endpoint: status %d identical=%t", status, got == want)
	}
}

// TestJobValidation covers the submit-side 400s.
func TestJobValidation(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name, body, frag string
	}{
		{"unknown kind", `{"kind":"mine-bitcoin"}`, "unknown job kind"},
		{"missing payload", `{"kind":"explore"}`, "requires the explore payload"},
		{"invalid explore", `{"kind":"explore","explore":{"capacity_mbit":-1}}`, "invalid request"},
		{"bad trials count", `{"kind":"trials","trials":{"spec":{"capacity_mbit":16,"interface_bits":64},"options":{"policy":"round-robin"},"clients":[{"name":"c","kind":"sequential","rate_gbps":0.5,"count":10}],"trials":0}}`, "trials must be in"},
		{"bad ecc", `{"kind":"trials","trials":{"spec":{"capacity_mbit":16,"interface_bits":64},"options":{"policy":"round-robin"},"clients":[{"name":"c","kind":"sequential","rate_gbps":0.5,"count":10}],"reliability":{"ecc":"quantum"},"trials":4}}`, "unknown ECC scheme"},
		{"future schema", `{"schema_version":99,"kind":"explore","explore":` + testReq + `}`, "schema_version"},
	}
	for _, tc := range cases {
		status, body, _ := post(t, client, ts.URL+"/v1/jobs", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, status, body)
		}
		if !strings.Contains(body, tc.frag) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.frag)
		}
	}

	status, _, _ := do(t, client, "GET", ts.URL+"/v1/jobs/no-such-job")
	if status != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", status)
	}
}

// TestJobResultWhileRunning: the result endpoint answers 409 with a
// Retry-After while the job is still computing.
func TestJobResultWhileRunning(t *testing.T) {
	srv := NewServer(Config{Workers: 2, JobCheckpointEvery: 256})
	defer srv.Close()
	started := make(chan struct{})
	hold := make(chan struct{})
	defer close(hold)
	var once sync.Once
	srv.jobsStore.OnCheckpoint = func(_ context.Context, id string, n int) {
		once.Do(func() {
			close(started)
			<-hold
		})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	_, body, _ := post(t, client, ts.URL+"/v1/jobs", jobTestReq)
	id := jobID(t, body)
	<-started
	status, body, hdr := do(t, client, "GET", ts.URL+"/v1/jobs/"+id+"/result")
	if status != http.StatusConflict {
		t.Fatalf("result while running: status %d, want 409: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("409 without Retry-After")
	}
}

// TestJobSurvivesInitiatorDisconnect pins the detachment of job
// execution from the submitting request: the submitter's context is
// cancelled right after the 202, and the job still runs to completion.
func TestJobSurvivesInitiatorDisconnect(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(trialsTestReq))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the initiator is gone
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, b)
	}
	st := waitJob(t, ts.Client(), ts.URL, jobID(t, string(b)))
	if st.State != "succeeded" {
		t.Errorf("job after initiator disconnect: state %q (error %q), want succeeded", st.State, st.Error)
	}
}

// TestAsyncExploreEscapeHatch: a synchronous explore whose sweep
// exceeds AsyncPointThreshold comes back as 202 + job id; once the job
// finishes, the same POST is a cache hit on the job's bytes.
func TestAsyncExploreEscapeHatch(t *testing.T) {
	srv := NewServer(Config{Workers: 2, AsyncPointThreshold: 100})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	status, body, hdr := post(t, client, ts.URL+"/v1/explore", testReq)
	if status != http.StatusAccepted {
		t.Fatalf("oversized sync explore: status %d, want 202: %s", status, body)
	}
	id := jobID(t, body)
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+id {
		t.Errorf("Location %q, want /v1/jobs/%s", loc, id)
	}
	st := waitJob(t, client, ts.URL, id)
	if st.State != "succeeded" {
		t.Fatalf("escape-hatch job state %q (error %q)", st.State, st.Error)
	}
	status, want, _ := do(t, client, "GET", ts.URL+st.ResultPath)
	if status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}

	status, got, hdr := post(t, client, ts.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" || got != want {
		t.Errorf("post-job explore: status %d, X-Cache %q, identical=%t", status, hdr.Get("X-Cache"), got == want)
	}
}

// TestReadyz: /readyz answers 503 before MarkReady and after the
// drain begins, 200 in between — while /healthz answers 200 the
// whole time.
func TestReadyz(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	status, body, _ := do(t, client, "GET", ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "starting") {
		t.Errorf("before MarkReady: status %d body %q, want 503 starting", status, body)
	}
	status, _, _ = do(t, client, "GET", ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Errorf("healthz while starting: status %d, want 200", status)
	}

	srv.MarkReady()
	status, body, _ = do(t, client, "GET", ts.URL+"/readyz")
	if status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("after MarkReady: status %d body %q, want 200 ok", status, body)
	}

	srv.markDraining()
	status, body, _ = do(t, client, "GET", ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("draining: status %d body %q, want 503 draining", status, body)
	}
	status, _, _ = do(t, client, "GET", ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", status)
	}
}

// TestWarmup: Warmup fills the cache so the first explore after
// startup is already a hit.
func TestWarmup(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	defer srv.Close()
	var reqBody RequirementsRequest
	if err := json.Unmarshal([]byte(testReq), &reqBody); err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(context.Background(), []core.Requirements{reqBody.Requirements}); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	status, _, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("first explore after warmup: status %d X-Cache %q, want 200 hit", status, hdr.Get("X-Cache"))
	}
}

// TestResumeRetiredDeltaJob: a job directory holding an unfinished
// job of the retired kind "delta" still resumes. The record, as an
// older daemon persisted it mid-sweep, finishes as an explore of its
// payload from its checkpointed watermark, with the cold sweep's bytes.
func TestResumeRetiredDeltaJob(t *testing.T) {
	ref := NewServer(Config{Workers: 2})
	tsRef := httptest.NewServer(ref)
	status, want, _ := post(t, tsRef.Client(), tsRef.URL+"/v1/explore", deltaTestReq)
	tsRef.Close()
	ref.Close()
	if status != http.StatusOK {
		t.Fatalf("reference explore: status %d: %s", status, want)
	}

	var req core.Requirements
	if err := strictUnmarshal([]byte(deltaTestReq), &req); err != nil {
		t.Fatal(err)
	}
	part, err := sweepPartition(context.Background(), req, 0, 1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	front := make([]CandidateJSON, len(part.Frontier))
	for i, c := range part.Frontier {
		front[i] = candidateJSON(c)
	}
	state, err := json.Marshal(exploreJobState{
		NextSeq:    1000,
		Total:      core.SweepCount(req),
		Enumerated: part.Enumerated,
		Built:      part.Built,
		Infeasible: part.Infeasible,
		Pruned:     part.Built - part.Infeasible - int64(len(part.Frontier)),
		Frontier:   front,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := HashKey("job", "job/v1|kind=delta|"+req.CanonicalKey())
	id := key[strings.IndexByte(key, ':')+1:]
	record := `{"format_version":1,"id":"` + id + `","kind":"delta","canonical_key":"` + key + `",` +
		`"status":"running","request":{"kind":"delta","delta":` + deltaTestReq + `},"state":` + string(state) +
		`,"progress":{"done":1000,"total":2304,"checkpoints":1}}`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(Config{Workers: 2, JobDir: dir})
	defer srv.Close()
	if n, err := srv.ResumeJobs(); err != nil || n != 1 {
		t.Fatalf("resume: %d jobs, err %v; want 1, nil", n, err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	st := waitJob(t, ts.Client(), ts.URL, id)
	if st.State != "succeeded" || st.Kind != "delta" {
		t.Fatalf("resumed job kind %q state %q (error %q), want delta succeeded", st.Kind, st.State, st.Error)
	}
	if st.Progress.Checkpoints < 2 {
		t.Errorf("resumed job made %d checkpoints, want the record's plus its own", st.Progress.Checkpoints)
	}
	if status, got, _ := do(t, ts.Client(), "GET", ts.URL+st.ResultPath); status != http.StatusOK || got != want {
		t.Errorf("resumed delta job result differs from the cold sweep (status %d)", status)
	}

	// The kind itself is gone from the submit API.
	status, body, _ := post(t, ts.Client(), ts.URL+"/v1/jobs", `{"kind":"delta"}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "want explore, trials or scenario") {
		t.Errorf("kind delta submit: status %d body %s, want 400 naming the kinds", status, body)
	}
}
