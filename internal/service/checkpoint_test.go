package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edram/internal/core"
	"edram/internal/scenario"
)

// writeJobRecord persists a running job of the POST /v1/jobs body
// with the given checkpoint state into dir, as a daemon killed mid-run
// leaves it, and returns the job id.
func writeJobRecord(t *testing.T, dir, body, state string) string {
	t.Helper()
	var req JobRequest
	if err := strictUnmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	job, err := (&Server{cfg: Config{}.withDefaults()}).compileJob(req)
	if err != nil {
		t.Fatal(err)
	}
	record := `{"format_version":1,"id":"` + job.id + `","kind":"` + job.kind + `","canonical_key":"` + job.key + `",` +
		`"status":"running","request":` + body + `,"state":` + state +
		`,"progress":{"done":1,"total":2,"checkpoints":1}}`
	if err := os.WriteFile(filepath.Join(dir, job.id+".json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	return job.id
}

// resumeFailed resumes the one job recorded in dir on a fresh server
// and requires it to fail with an error naming its checkpoint. It
// returns the server for follow-up requests.
func resumeFailed(t *testing.T, dir, id string) *httptest.Server {
	t.Helper()
	srv := NewServer(Config{Workers: 2, JobDir: dir})
	t.Cleanup(func() { srv.Close() })
	if n, err := srv.ResumeJobs(); err != nil || n != 1 {
		t.Fatalf("resume: %d jobs, err %v; want 1, nil", n, err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	st := waitJob(t, ts.Client(), ts.URL, id)
	if st.State != "failed" || !strings.Contains(st.Error, "checkpoint") {
		t.Fatalf("resumed job state %q (error %q), want failed naming the checkpoint", st.State, st.Error)
	}
	return ts
}

// TestResumeRejectsDamagedExploreCheckpoint: an explore job whose
// checkpoint cannot be a swept prefix of its request fails on resume
// with an error naming the checkpoint, and fills no cache — the next
// POST /v1/explore of the same request is a miss with the cold bytes.
func TestResumeRejectsDamagedExploreCheckpoint(t *testing.T) {
	want := exploreReference(t)
	dir := t.TempDir()
	id := writeJobRecord(t, dir, jobTestReq, `{"next_seq":50,"total":50,"built":7,"infeasible":7,"frontier":[]}`)
	ts := resumeFailed(t, dir, id)
	status, got, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" || got != want {
		t.Errorf("explore after the failed resume: status %d, X-Cache %q, identical=%t; want 200 miss with the cold bytes",
			status, hdr.Get("X-Cache"), got == want)
	}
}

// TestResumeRejectsDamagedScenarioCheckpoint: a scenario job whose
// checkpoint claims levels it does not hold fails on resume and fills
// no cache — the next POST /v1/scenario is a miss with the full bytes.
func TestResumeRejectsDamagedScenarioCheckpoint(t *testing.T) {
	ref := NewServer(Config{Workers: 2})
	tsRef := httptest.NewServer(ref)
	status, want, _ := post(t, tsRef.Client(), tsRef.URL+"/v1/scenario", scenarioDoc)
	tsRef.Close()
	ref.Close()
	if status != http.StatusOK {
		t.Fatalf("reference scenario: status %d: %s", status, want)
	}
	dir := t.TempDir()
	id := writeJobRecord(t, dir, `{"kind":"scenario","scenario":`+scenarioDoc+`}`, `{"next_level":99,"levels":[]}`)
	ts := resumeFailed(t, dir, id)
	status, got, hdr := post(t, ts.Client(), ts.URL+"/v1/scenario", scenarioDoc)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" || got != want {
		t.Errorf("scenario after the failed resume: status %d, X-Cache %q, identical=%t; want 200 miss with the full bytes",
			status, hdr.Get("X-Cache"), got == want)
	}
}

// TestResumeRejectsDamagedTrialsCheckpoint: a campaign whose
// checkpoint skips trials it never ran fails on resume.
func TestResumeRejectsDamagedTrialsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	resumeFailed(t, dir, writeJobRecord(t, dir, trialsTestReq, `{"next_trial":5,"results":[]}`))
}

// TestJobStateChecks pins the scenario and campaign checkpoint checks:
// a state resumes only as the exact prefix the runner would have
// written.
func TestJobStateChecks(t *testing.T) {
	trial := func(i ...int) string {
		parts := make([]string, len(i))
		for k, n := range i {
			parts[k] = fmt.Sprintf(`{"trial":%d}`, n)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	for _, tc := range []struct {
		state string
		ok    bool
	}{
		{`{"next_trial":0,"results":[]}`, true},
		{`{"next_trial":2,"results":` + trial(0, 1) + `}`, true},
		{`{"next_trial":12,"results":` + trial(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11) + `}`, true},
		{`{"next_trial":5,"results":[]}`, false},
		{`{"next_trial":1,"results":` + trial(0, 1) + `}`, false},
		{`{"next_trial":2,"results":` + trial(1, 0) + `}`, false},
		{`{"next_trial":13,"results":` + trial(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12) + `}`, false},
		{`{"next_trial":-1,"results":[]}`, false},
	} {
		if err := resumeState(&trialsJobState{req: TrialsJobRequest{Trials: 12}}, []byte(tc.state)); (err == nil) != tc.ok {
			t.Errorf("trials state %s: err %v, want ok=%t", tc.state, err, tc.ok)
		}
	}
	for _, tc := range []struct {
		state string
		ok    bool
	}{
		{`{"next_level":0,"levels":[]}`, true},
		{`{"next_level":1,"levels":[{"name":"store"}]}`, true},
		{`{"next_level":99,"levels":[]}`, false},
		{`{"next_level":0,"levels":[{"name":"store"}]}`, false},
		{`{"next_level":2,"levels":[{"name":"a"},{"name":"b"}]}`, false},
	} {
		if err := resumeState(scenarioState(1), []byte(tc.state)); (err == nil) != tc.ok {
			t.Errorf("scenario state %s: err %v, want ok=%t", tc.state, err, tc.ok)
		}
	}
}

// TestExploreJobStateCheck breaks a real checkpoint one invariant at a
// time: the intact state resumes, every damaged copy is refused.
func TestExploreJobStateCheck(t *testing.T) {
	var body RequirementsRequest
	if err := strictUnmarshal([]byte(testReq), &body); err != nil {
		t.Fatal(err)
	}
	req := body.Requirements
	part, err := sweepPartition(context.Background(), req, 0, 1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	valid := exploreJobState{
		NextSeq:    1024,
		Total:      core.SweepCount(req),
		Enumerated: part.Enumerated,
		Built:      part.Built,
		Infeasible: part.Infeasible,
		Pruned:     part.Pruned(),
	}
	for _, c := range part.Frontier {
		valid.Frontier = append(valid.Frontier, candidateJSON(c))
	}
	if len(valid.Frontier) == 0 || valid.Pruned == 0 {
		t.Fatalf("reference prefix too small to exercise the checks: %+v", valid)
	}
	encode := func(st exploreJobState) []byte {
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := resumeState(newExploreState(req), encode(valid)); err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}
	if st := newExploreState(req); resumeState(st, nil) != nil || st.Total != valid.Total || st.NextSeq != 0 {
		t.Fatalf("no checkpoint: state %+v; want a fresh state", st)
	}
	for name, damage := range map[string]func(*exploreJobState){
		"total":             func(st *exploreJobState) { st.Total = 50 },
		"negative next_seq": func(st *exploreJobState) { st.NextSeq = -1 },
		"next_seq past end": func(st *exploreJobState) { st.NextSeq = st.Total + 1 },
		"enumerated":        func(st *exploreJobState) { st.Enumerated-- },
		"negative counters": func(st *exploreJobState) { st.Built, st.Infeasible, st.Pruned = -2, -2, 0; st.Frontier = nil },
		"infeasible>built":  func(st *exploreJobState) { st.Infeasible = st.Built + 1 },
		"built>enumerated":  func(st *exploreJobState) { st.Built = st.Enumerated + 1 },
		"pruned":            func(st *exploreJobState) { st.Pruned++ },
		"frontier dropped":  func(st *exploreJobState) { st.Frontier = st.Frontier[1:] },
		"frontier seq":      func(st *exploreJobState) { st.Frontier[0].Seq = st.NextSeq },
	} {
		st := valid
		st.Frontier = append([]CandidateJSON(nil), valid.Frontier...)
		damage(&st)
		if err := resumeState(newExploreState(req), encode(st)); err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("%s: damaged checkpoint accepted (err %v)", name, err)
		}
	}
	if err := resumeState(newExploreState(req), []byte(`{"next_seq":`)); err == nil {
		t.Error("truncated checkpoint JSON accepted")
	}
}

// scenarioState is the state of a scenario job of the given number of
// levels before its first step.
func scenarioState(levels int) *scenarioJobState {
	return &scenarioJobState{compiled: &scenario.Compiled{Levels: make([]scenario.CompiledLevel, levels)}}
}

// FuzzExploreJobState feeds arbitrary bytes to the resume path of
// every job kind's checkpoint state: decoding and checking never
// panic, and any accepted state meets its kind's invariants. An
// accepted explore state's front also folds; the trials and scenario
// states decode over a 12-trial campaign and a two-level scenario.
func FuzzExploreJobState(f *testing.F) {
	var body RequirementsRequest
	if err := strictUnmarshal([]byte(testReq), &body); err != nil {
		f.Fatal(err)
	}
	req := body.Requirements
	total := core.SweepCount(req)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if tr := (&trialsJobState{req: TrialsJobRequest{Trials: 12}}); resumeState(tr, raw) == nil {
			if len(tr.Results) != tr.NextTrial || tr.NextTrial > 12 {
				t.Fatalf("accepted trials state with next_trial %d and %d results", tr.NextTrial, len(tr.Results))
			}
			for i, r := range tr.Results {
				if r.Trial != i {
					t.Fatalf("accepted trials state whose result %d is trial %d", i, r.Trial)
				}
			}
		}
		if sc := scenarioState(2); resumeState(sc, raw) == nil && (len(sc.Levels) != sc.NextLevel || sc.NextLevel > 2) {
			t.Fatalf("accepted scenario state with next_level %d and %d levels", sc.NextLevel, len(sc.Levels))
		}
		st := newExploreState(req)
		if err := resumeState(st, raw); err != nil {
			return
		}
		if st.Total != total || st.NextSeq < 0 || st.NextSeq > st.Total || st.Enumerated != int64(st.NextSeq) {
			t.Fatalf("accepted state outside the sweep: %+v", st)
		}
		if st.Infeasible < 0 || st.Infeasible > st.Built || st.Built > st.Enumerated ||
			st.Pruned < 0 || st.Pruned != st.Built-st.Infeasible-int64(len(st.Frontier)) {
			t.Fatalf("accepted state with inconsistent counters: %+v", st)
		}
		acc := core.SweepResult{Enumerated: st.Enumerated, Built: st.Built, Infeasible: st.Infeasible}
		for _, cj := range st.Frontier {
			if cj.Seq < 0 || cj.Seq >= st.NextSeq {
				t.Fatalf("accepted frontier seq %d outside [0, %d)", cj.Seq, st.NextSeq)
			}
			acc.Frontier = append(acc.Frontier, candidateFromJSON(cj))
		}
		acc.Merge()
	})
}
