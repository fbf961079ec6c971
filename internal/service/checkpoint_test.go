package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edram/internal/core"
	"edram/internal/shard"
)

// writeExploreJob persists a running explore job of testReq with the
// given checkpoint state into dir, as a daemon killed mid-sweep leaves
// it, and returns the job id.
func writeExploreJob(t *testing.T, dir, state string) string {
	t.Helper()
	var body RequirementsRequest
	if err := strictUnmarshal([]byte(testReq), &body); err != nil {
		t.Fatal(err)
	}
	key := HashKey("job", "job/v1|kind=explore|"+body.Requirements.CanonicalKey())
	id := key[strings.IndexByte(key, ':')+1:]
	record := `{"format_version":1,"id":"` + id + `","kind":"explore","canonical_key":"` + key + `",` +
		`"status":"running","request":` + jobTestReq + `,"state":` + state +
		`,"progress":{"done":50,"total":2304,"checkpoints":1}}`
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(record), 0o644); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestResumeRejectsDamagedExploreCheckpoint: an explore job whose
// checkpoint cannot be a swept prefix of its request fails on resume
// with an error naming the checkpoint, and fills no cache — the next
// POST /v1/explore of the same request is a miss with the cold bytes.
func TestResumeRejectsDamagedExploreCheckpoint(t *testing.T) {
	want := exploreReference(t)
	dir := t.TempDir()
	id := writeExploreJob(t, dir, `{"next_seq":50,"total":50,"built":7,"infeasible":7,"frontier":[]}`)

	srv := NewServer(Config{Workers: 2, JobDir: dir})
	defer srv.Close()
	if n, err := srv.ResumeJobs(); err != nil || n != 1 {
		t.Fatalf("resume: %d jobs, err %v; want 1, nil", n, err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	st := waitJob(t, ts.Client(), ts.URL, id)
	if st.State != "failed" || !strings.Contains(st.Error, "checkpoint") {
		t.Fatalf("resumed job state %q (error %q), want failed naming the checkpoint", st.State, st.Error)
	}
	status, got, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" || got != want {
		t.Errorf("explore after the failed resume: status %d, X-Cache %q, identical=%t; want 200 miss with the cold bytes",
			status, hdr.Get("X-Cache"), got == want)
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
		Pruned:     part.Built - part.Infeasible - int64(len(part.Frontier)),
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
	if _, err := resumeExploreState(req, encode(valid)); err != nil {
		t.Fatalf("intact checkpoint refused: %v", err)
	}
	if st, err := resumeExploreState(req, nil); err != nil || st.Total != valid.Total || st.NextSeq != 0 {
		t.Fatalf("no checkpoint: state %+v, err %v; want a fresh state", st, err)
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
		if _, err := resumeExploreState(req, encode(st)); err == nil || !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("%s: damaged checkpoint accepted (err %v)", name, err)
		}
	}
	if _, err := resumeExploreState(req, []byte(`{"next_seq":`)); err == nil {
		t.Error("truncated checkpoint JSON accepted")
	}
}

// FuzzExploreJobState feeds arbitrary bytes to the explore job's
// resume path: decoding and checking never panic, any accepted state
// meets the checkpoint invariants, and its front folds.
func FuzzExploreJobState(f *testing.F) {
	var body RequirementsRequest
	if err := strictUnmarshal([]byte(testReq), &body); err != nil {
		f.Fatal(err)
	}
	req := body.Requirements
	total := core.SweepCount(req)
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := resumeExploreState(req, raw)
		if err != nil {
			return
		}
		if st.Total != total || st.NextSeq < 0 || st.NextSeq > st.Total || st.Enumerated != int64(st.NextSeq) {
			t.Fatalf("accepted state outside the sweep: %+v", st)
		}
		if st.Infeasible < 0 || st.Infeasible > st.Built || st.Built > st.Enumerated ||
			st.Pruned < 0 || st.Pruned != st.Built-st.Infeasible-int64(len(st.Frontier)) {
			t.Fatalf("accepted state with inconsistent counters: %+v", st)
		}
		acc := shard.Result{Enumerated: st.Enumerated, Built: st.Built, Infeasible: st.Infeasible}
		for _, cj := range st.Frontier {
			if cj.Seq < 0 || cj.Seq >= st.NextSeq {
				t.Fatalf("accepted frontier seq %d outside [0, %d)", cj.Seq, st.NextSeq)
			}
			acc.Frontier = append(acc.Frontier, candidateFromJSON(cj))
		}
		shard.Merge(acc)
	})
}
