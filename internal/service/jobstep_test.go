package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"edram/internal/jobs"
)

// trialsCancelReq is a campaign of two checkpointed chunks (8 trials,
// then 1) on a 1 Mbit macro, whose fault model is cheap to arm, so the
// cancel test stays fast enough to repeat under the race detector.
const trialsCancelReq = `{"kind":"trials","trials":{
	"spec":{"capacity_mbit":1,"interface_bits":64},
	"options":{"policy":"round-robin"},
	"clients":[{"name":"cpu","kind":"sequential","rate_gbps":0.8,"count":40}],
	"reliability":{"ecc":"secded","mean_defects_per_bank":0.5,"soft_errors_per_m_access":2000,"spare_rows_per_bank":2,"max_retries":1},
	"trials":9,"seed":42}}`

// referenceBytes returns what an uninterrupted run serves for payload
// at path: the synchronous endpoint's bytes, or for /v1/jobs the
// result of a job that was never stopped.
func referenceBytes(t *testing.T, path, payload string) string {
	t.Helper()
	srv := NewServer(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	status, body, _ := post(t, ts.Client(), ts.URL+path, payload)
	if path == "/v1/jobs" {
		st := waitJob(t, ts.Client(), ts.URL, jobID(t, body))
		status, body, _ = do(t, ts.Client(), "GET", ts.URL+st.ResultPath)
	}
	if status != http.StatusOK {
		t.Fatalf("reference %s: status %d: %s", path, status, body)
	}
	return body
}

// readRecord decodes the ckpt/v1 record of job id in dir.
func readRecord(t *testing.T, dir, id string) (status jobs.State, progress jobs.Progress) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Status   jobs.State    `json:"status"`
		Progress jobs.Progress `json:"progress"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Status, rec.Progress
}

// resumeOne resumes the one job recorded in dir on a fresh server,
// waits for it to succeed and returns its status and result bytes.
func resumeOne(t *testing.T, cfg Config, id string) (JobStatusResponse, string) {
	t.Helper()
	srv := NewServer(cfg)
	t.Cleanup(func() { srv.Close() })
	if n, err := srv.ResumeJobs(); err != nil || n != 1 {
		t.Fatalf("resume: %d jobs, err %v; want 1, nil", n, err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	st := waitJob(t, ts.Client(), ts.URL, id)
	if st.State != "succeeded" {
		t.Fatalf("resumed job state %q (error %q), want succeeded", st.State, st.Error)
	}
	status, got, _ := do(t, ts.Client(), "GET", ts.URL+st.ResultPath)
	if status != http.StatusOK {
		t.Fatalf("result: status %d: %s", status, got)
	}
	return st, got
}

// TestJobCancelAfterLastStep pins the one cancel rule: a job of any
// kind cancelled while it writes its last checkpoint ends cancelled,
// keeps that checkpoint and fills no cache. The next life resumes it
// with no step left and finishes with the uninterrupted bytes.
func TestJobCancelAfterLastStep(t *testing.T) {
	for _, tc := range []struct {
		kind, job, path, payload string
		every, checkpoints       int
	}{
		{"explore", jobTestReq, "/v1/explore", testReq, 256, 9},
		{"trials", trialsCancelReq, "/v1/jobs", trialsCancelReq, 0, 2},
		{"scenario", `{"kind":"scenario","scenario":` + scenarioDoc + `}`, "/v1/scenario", scenarioDoc, 0, 1},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			want := referenceBytes(t, tc.path, tc.payload)
			dir := t.TempDir()
			cfg := Config{Workers: 2, JobDir: dir, JobCheckpointEvery: tc.every}
			s1 := NewServer(cfg)
			atLast := make(chan struct{})
			// The last checkpoint holds its runner until Close has
			// cancelled that very job's context.
			s1.jobsStore.OnCheckpoint = func(ctx context.Context, id string, n int) {
				if n == tc.checkpoints {
					close(atLast)
					<-ctx.Done()
				}
			}
			ts1 := httptest.NewServer(s1)
			status, body, _ := post(t, ts1.Client(), ts1.URL+"/v1/jobs", tc.job)
			if status != http.StatusAccepted {
				t.Fatalf("submit: status %d, want 202: %s", status, body)
			}
			id := jobID(t, body)
			<-atLast
			if err := s1.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			ts1.Close()

			if snap, _ := s1.jobsStore.Get(id); snap.State != jobs.StateCancelled {
				t.Errorf("job cancelled after its last step ended %s (error %q), want cancelled", snap.State, snap.Error)
			}
			if n := s1.cache.Len(); n != 0 {
				t.Errorf("cancelled job filled %d cache entries, want none", n)
			}
			if status, p := readRecord(t, dir, id); status != jobs.StateRunning || p.Checkpoints != tc.checkpoints {
				t.Fatalf("record after cancel: status %s, %d checkpoints; want running at %d", status, p.Checkpoints, tc.checkpoints)
			}

			st, got := resumeOne(t, cfg, id)
			if st.Progress.Done != st.Progress.Total || st.Progress.Checkpoints != tc.checkpoints {
				t.Errorf("resumed progress %d/%d after %d checkpoints, want done with no step left (%d checkpoints)",
					st.Progress.Done, st.Progress.Total, st.Progress.Checkpoints, tc.checkpoints)
			}
			if got != want {
				t.Errorf("resumed result differs from the uninterrupted run:\n got %.120s\nwant %.120s", got, want)
			}
		})
	}
}

// TestResumeParentCheckpoints resumes ckpt/v1 records written mid-run
// by the previous release of the runners (testdata/ckpt: an explore
// after its first 256-point partition, a campaign after 8 of its 12
// trials, a two-level scenario after its first level). Each finishes
// from its watermark with the bytes of an uninterrupted run.
func TestResumeParentCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		file, path  string
		checkpoints int
	}{
		{"explore.json", "/v1/explore", 9},
		{"trials.json", "/v1/jobs", 2},
		{"scenario.json", "/v1/scenario", 2},
	} {
		t.Run(tc.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", "ckpt", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			var rec struct {
				ID      string     `json:"id"`
				Request JobRequest `json:"request"`
			}
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			var payload any = rec.Request
			switch rec.Request.Kind {
			case "explore":
				payload = rec.Request.Explore
			case "scenario":
				payload = rec.Request.Scenario
			}
			body, err := json.Marshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceBytes(t, tc.path, string(body))

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, rec.ID+".json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			st, got := resumeOne(t, Config{Workers: 2, JobDir: dir, JobCheckpointEvery: 256}, rec.ID)
			if st.Progress.Checkpoints != tc.checkpoints {
				t.Errorf("resumed job made %d checkpoints in all, want %d (resumed from the record's watermark)",
					st.Progress.Checkpoints, tc.checkpoints)
			}
			if got != want {
				t.Errorf("resumed result differs from the uninterrupted run:\n got %.120s\nwant %.120s", got, want)
			}
		})
	}
}

// windowState is a job state that only records the step windows the
// loop hands it.
type windowState struct {
	Next, Total int
	windows     [][2]int
}

func (w *windowState) check() error            { return nil }
func (w *windowState) span() (int, int)        { return w.Next, w.Total }
func (w *windowState) progress() jobs.Progress { return jobs.Progress{} }
func (w *windowState) step(_ context.Context, from, to, _ int) error {
	w.windows = append(w.windows, [2]int{from, to})
	w.Next = to
	return nil
}

// TestJobStepWindowsCoverRange: the step loop covers a job's
// remaining range contiguously, in as few windows as the checkpoint
// cadence allows, none longer than the cadence, and runs no step over
// an empty range.
func TestJobStepWindowsCoverRange(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	for i, tc := range []struct{ from, to, every int }{
		{0, 2304, 2304}, {0, 2304, 768}, {0, 2304, 330}, {5, 17, 3},
		{0, 3, 8}, // one window shorter than the cadence
		{100, 101, 1},
		{10, 10, 4}, // nothing left
	} {
		st := &windowState{Next: tc.from, Total: tc.to}
		id := fmt.Sprintf("windows-%d", i)
		if _, _, err := srv.jobsStore.Submit(id, "test", "k", nil, func(ctx context.Context, h *jobs.Handle) ([]byte, error) {
			return nil, srv.runSteps(ctx, h, st, tc.every)
		}); err != nil {
			t.Fatal(err)
		}
		if snap, err := srv.jobsStore.Wait(context.Background(), id); err != nil || snap.State != jobs.StateSucceeded {
			t.Fatalf("windows job: state %s, err %v", snap.State, err)
		}
		if want := (tc.to - tc.from + tc.every - 1) / tc.every; len(st.windows) != want {
			t.Fatalf("[%d,%d) every %d: %d windows, want %d", tc.from, tc.to, tc.every, len(st.windows), want)
		}
		next := tc.from
		for k, w := range st.windows {
			if w[0] != next || w[1] <= w[0] || w[1]-w[0] > tc.every {
				t.Fatalf("[%d,%d) every %d: window %d = %v, want contiguous from %d and at most %d long",
					tc.from, tc.to, tc.every, k, w, next, tc.every)
			}
			next = w[1]
		}
		if next != tc.to {
			t.Fatalf("[%d,%d) every %d: windows end at %d", tc.from, tc.to, tc.every, next)
		}
	}
}
