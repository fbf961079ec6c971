package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"edram/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Check(m) }

func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := NewStore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(5 * time.Second); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func waitTerminal(t *testing.T, s *Store, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	snap, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return snap
}

func TestSubmitRunResult(t *testing.T) {
	s := newTestStore(t, Config{Dir: t.TempDir()})
	snap, created, err := s.Submit("job1", "test", "k1", json.RawMessage(`{"n":1}`),
		func(ctx context.Context, h *Handle) ([]byte, error) {
			h.SetProgress(Progress{Done: 1, Total: 1})
			return []byte("payload\n"), nil
		})
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	if snap.State != StateRunning {
		t.Errorf("fresh job state = %s", snap.State)
	}
	snap = waitTerminal(t, s, "job1")
	if snap.State != StateSucceeded || !snap.HasResult {
		t.Fatalf("terminal snapshot: %+v", snap)
	}
	if snap.Progress.Done != 1 || snap.Progress.Total != 1 {
		t.Errorf("progress not published: %+v", snap.Progress)
	}
	if _, res, ok := s.Result("job1"); !ok || string(res) != "payload\n" {
		t.Errorf("result = %q ok=%v", res, ok)
	}
	req, ok := s.Request("job1")
	if !ok || string(req) != `{"n":1}` {
		t.Errorf("request = %s ok=%v", req, ok)
	}
}

func TestSubmitIdempotent(t *testing.T) {
	s := newTestStore(t, Config{})
	release := make(chan struct{})
	blocking := func(ctx context.Context, h *Handle) ([]byte, error) {
		select {
		case <-release:
			return []byte("done"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if _, created, err := s.Submit("dup", "test", "k", nil, blocking); err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	snap, created, err := s.Submit("dup", "test", "k", nil, blocking)
	if err != nil || created {
		t.Fatalf("second submit: created=%v err=%v", created, err)
	}
	if snap.State != StateRunning {
		t.Errorf("attached snapshot state = %s", snap.State)
	}
	close(release)
	waitTerminal(t, s, "dup")
}

func TestDeleteCancelsPromptly(t *testing.T) {
	s := newTestStore(t, Config{Dir: t.TempDir()})
	cancelled := make(chan struct{})
	if _, _, err := s.Submit("victim", "test", "k", nil,
		func(ctx context.Context, h *Handle) ([]byte, error) {
			<-ctx.Done()
			close(cancelled)
			return nil, ctx.Err()
		}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("runner never observed cancellation")
	}
	if _, ok := s.Get("victim"); ok {
		t.Error("deleted job still visible")
	}
	if err := s.Delete("victim"); !errors.Is(err, ErrNotFound) {
		t.Errorf("second delete: %v", err)
	}
	if _, err := os.Stat(filepath.Join(s.cfg.Dir, "victim.json")); !os.IsNotExist(err) {
		t.Errorf("checkpoint file survived delete: %v", err)
	}
}

func TestOverloadBounds(t *testing.T) {
	s := newTestStore(t, Config{MaxJobs: 2, MaxActive: 1})
	release := make(chan struct{})
	blocking := func(ctx context.Context, h *Handle) ([]byte, error) {
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if _, _, err := s.Submit("a", "test", "k", nil, blocking); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit("b", "test", "k", nil, blocking); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over MaxActive: %v", err)
	}
	close(release)
	waitTerminal(t, s, "a")

	// Fill to MaxJobs with terminal entries, then verify eviction
	// makes room and preserves the newer entry.
	quick := func(ctx context.Context, h *Handle) ([]byte, error) { return nil, nil }
	if _, _, err := s.Submit("c", "test", "k", nil, quick); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, "c")
	if _, _, err := s.Submit("d", "test", "k", nil, quick); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, "d")
	if _, ok := s.Get("a"); ok {
		t.Error("oldest terminal job not evicted at cap")
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != "c" || list[1].ID != "d" {
		t.Errorf("list after eviction: %+v", list)
	}
	// Eviction must also reap the checkpoint file (after releasing the
	// store lock — the disk delete no longer runs under s.mu).
	if _, err := os.Stat(filepath.Join(s.cfg.Dir, "a.json")); !os.IsNotExist(err) {
		t.Errorf("evicted job's checkpoint file survived: %v", err)
	}
}

func TestInvalidID(t *testing.T) {
	s := newTestStore(t, Config{Dir: t.TempDir()})
	for _, id := range []string{"", "../escape", "a/b", "x.json", strings.Repeat("z", 200)} {
		if _, _, err := s.Submit(id, "test", "k", nil, nil); err == nil {
			t.Errorf("id %q accepted", id)
		}
	}
}

func TestFailedJobRecordsError(t *testing.T) {
	s := newTestStore(t, Config{Dir: t.TempDir()})
	if _, _, err := s.Submit("boom", "test", "k", nil,
		func(ctx context.Context, h *Handle) ([]byte, error) {
			return nil, errors.New("melted")
		}); err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, s, "boom")
	if snap.State != StateFailed || snap.Error != "melted" {
		t.Errorf("failed snapshot: %+v", snap)
	}
	if snap, res, ok := s.Result("boom"); !ok || snap.State != StateFailed || res != nil {
		t.Error("failed job served a result")
	}
}

// TestDeletedJobHasNoResult: once a succeeded job is deleted, Result
// reports it missing — no snapshot, no bytes — so the result endpoint
// answers 404 instead of a 200 with an empty body.
func TestDeletedJobHasNoResult(t *testing.T) {
	s := newTestStore(t, Config{})
	if _, _, err := s.Submit("done", "test", "k", nil,
		func(ctx context.Context, h *Handle) ([]byte, error) {
			return []byte("payload\n"), nil
		}); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, "done")
	if snap, res, ok := s.Result("done"); !ok || snap.State != StateSucceeded || string(res) != "payload\n" {
		t.Fatalf("before delete: state %s, result %q, ok=%v", snap.State, res, ok)
	}
	if err := s.Delete("done"); err != nil {
		t.Fatal(err)
	}
	if snap, res, ok := s.Result("done"); ok || snap.State != "" || res != nil {
		t.Errorf("deleted job: state %q, result %q, ok=%v; want no job", snap.State, res, ok)
	}
}

// TestCheckpointResume is the package-level resume contract: a store
// shut down mid-job leaves a running checkpoint on disk; a new store
// over the same directory restarts the job with the persisted state,
// and once terminal, a third store serves the outcome without
// resolving a runner at all.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStore(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := make(chan struct{})
	s1.OnCheckpoint = func(_ context.Context, id string, n int) {
		if n == 1 {
			close(checkpointed)
		}
	}
	if _, _, err := s1.Submit("resume-me", "test", "key9", json.RawMessage(`{"want":"it"}`),
		func(ctx context.Context, h *Handle) ([]byte, error) {
			if err := h.Checkpoint(json.RawMessage(`{"watermark":7}`)); err != nil {
				return nil, err
			}
			<-ctx.Done() // simulate a long tail the shutdown interrupts
			return nil, ctx.Err()
		}); err != nil {
		t.Fatal(err)
	}
	<-checkpointed
	if err := s1.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Restart: the resolver sees the original request; the runner sees
	// the checkpointed state and finishes from it.
	s2 := newTestStore(t, Config{Dir: dir})
	restarted, err := s2.Resume(func(kind string, req json.RawMessage) (RunFunc, error) {
		var got struct {
			Want string `json:"want"`
		}
		// The file is written indented, so compare the request
		// semantically, not byte-for-byte.
		if err := json.Unmarshal(req, &got); err != nil || kind != "test" || got.Want != "it" {
			t.Errorf("resolver saw kind=%q req=%s err=%v", kind, req, err)
		}
		return func(ctx context.Context, h *Handle) ([]byte, error) {
			var st struct {
				Watermark int `json:"watermark"`
			}
			if err := json.Unmarshal(h.Resumed(), &st); err != nil {
				return nil, err
			}
			if st.Watermark != 7 {
				t.Errorf("resumed watermark = %d", st.Watermark)
			}
			return []byte("finished-from-7\n"), nil
		}, nil
	})
	if err != nil || restarted != 1 {
		t.Fatalf("resume: restarted=%d err=%v", restarted, err)
	}
	snap := waitTerminal(t, s2, "resume-me")
	if snap.State != StateSucceeded || snap.Key != "key9" {
		t.Fatalf("resumed terminal snapshot: %+v", snap)
	}
	_, res, _ := s2.Result("resume-me")
	if string(res) != "finished-from-7\n" {
		t.Errorf("resumed result = %q", res)
	}
	if err := s2.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Third life: terminal record is served straight from disk; the
	// resolver must not be consulted.
	s3 := newTestStore(t, Config{Dir: dir})
	restarted, err = s3.Resume(func(kind string, req json.RawMessage) (RunFunc, error) {
		t.Error("resolver called for terminal checkpoint")
		return nil, errors.New("unreachable")
	})
	if err != nil || restarted != 0 {
		t.Fatalf("terminal resume: restarted=%d err=%v", restarted, err)
	}
	_, res, ok := s3.Result("resume-me")
	if !ok || string(res) != "finished-from-7\n" {
		t.Errorf("terminal record result = %q ok=%v", res, ok)
	}
}

// TestResumeRejectsForeignFormats: version bumps and mismatched ids
// are surfaced, not silently swallowed or deleted.
func TestResumeRejectsForeignFormats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("future.json", `{"format_version":99,"id":"future","kind":"test","status":"succeeded"}`)
	write("liar.json", `{"format_version":1,"id":"other","kind":"test","status":"succeeded"}`)
	write("garbage.json", `{nope`)
	write("ignored.txt", `not a checkpoint`)

	s := newTestStore(t, Config{Dir: dir})
	restarted, err := s.Resume(func(string, json.RawMessage) (RunFunc, error) {
		return nil, errors.New("no runners here")
	})
	if restarted != 0 {
		t.Errorf("restarted = %d", restarted)
	}
	if err == nil {
		t.Fatal("foreign checkpoints accepted silently")
	}
	for _, want := range []string{"format_version 99", "does not match", "garbage.json"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	if len(s.List()) != 0 {
		t.Errorf("foreign records materialized: %+v", s.List())
	}
	// The files themselves must survive for operator inspection.
	for _, name := range []string{"future.json", "liar.json", "garbage.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s removed: %v", name, err)
		}
	}
}

func TestCloseCancelsRunning(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	observed := make(chan struct{})
	if _, _, err := s.Submit("longhaul", "test", "k", nil,
		func(ctx context.Context, h *Handle) ([]byte, error) {
			if err := h.Checkpoint(json.RawMessage(`{"at":3}`)); err != nil {
				return nil, err
			}
			<-ctx.Done()
			close(observed)
			return nil, ctx.Err()
		}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	<-observed
	// Shutdown-cancelled: checkpoint stays on disk, still status
	// running, so the next life resumes it.
	data, err := os.ReadFile(filepath.Join(dir, "longhaul.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Status State `json:"status"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Status != StateRunning {
		t.Errorf("post-shutdown checkpoint status = %s, want running", rec.Status)
	}
	if _, _, err := s.Submit("late", "test", "k", nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v", err)
	}
}

// TestCheckpointedJobsLeaveTerminalRecords pins the ordering of a
// job's file writes: the birth record, the runner's checkpoint and the
// terminal record of each of many concurrent jobs land in that order,
// so every file ends as a parseable terminal record.
func TestCheckpointedJobsLeaveTerminalRecords(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	s := newTestStore(t, Config{Dir: dir, MaxJobs: n, MaxActive: n})
	run := func(ctx context.Context, h *Handle) ([]byte, error) {
		if err := h.Checkpoint(json.RawMessage(`{"watermark":1}`)); err != nil {
			return nil, err
		}
		return []byte("done\n"), nil
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("job%03d", i)
		if _, _, err := s.Submit(ids[i], "test", "k", json.RawMessage(`{}`), run); err != nil {
			t.Fatalf("submit %s: %v", ids[i], err)
		}
	}
	for _, id := range ids {
		if snap := waitTerminal(t, s, id); snap.State != StateSucceeded {
			t.Fatalf("%s: state %s (%s)", id, snap.State, snap.Error)
		}
		data, err := os.ReadFile(filepath.Join(dir, id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec checkpointFile
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatalf("%s: torn record: %v\n%s", id, err, data)
		}
		if rec.Status != StateSucceeded || string(rec.Result) != "done\n" {
			t.Errorf("%s: record status %s result %q, want succeeded %q", id, rec.Status, rec.Result, "done\n")
		}
	}
}

// TestResumeRejectsUnknownStatus: a record whose status is none of the
// four lifecycle states is reported and left on disk, not loaded as a
// job that stays "not yet finished" forever.
func TestResumeRejectsUnknownStatus(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "typo.json"),
		[]byte(`{"format_version":1,"id":"typo","kind":"test","status":"runing"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config{Dir: dir})
	restarted, err := s.Resume(func(string, json.RawMessage) (RunFunc, error) {
		return nil, errors.New("no runners here")
	})
	if restarted != 0 || err == nil || !strings.Contains(err.Error(), `unknown status "runing"`) {
		t.Fatalf("resume: %d restarted, err %v; want 0 and an error naming the status", restarted, err)
	}
	if len(s.List()) != 0 {
		t.Errorf("record with an unknown status materialized: %+v", s.List())
	}
	if _, err := os.Stat(filepath.Join(dir, "typo.json")); err != nil {
		t.Errorf("typo.json removed: %v", err)
	}
}

// FuzzCheckpointRecord writes arbitrary bytes as a ckpt/v1 file and
// resumes a store over it: Resume never panics, and any record it
// accepts is a job with a known status under its file's id.
func FuzzCheckpointRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzzjob.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewStore(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(5 * time.Second)
		_, _ = s.Resume(func(kind string, _ json.RawMessage) (RunFunc, error) {
			if kind != "test" {
				return nil, fmt.Errorf("unknown kind %q", kind)
			}
			return func(context.Context, *Handle) ([]byte, error) { return nil, errors.New("fuzz runner") }, nil
		})
		for _, snap := range s.List() {
			if !snap.State.known() || snap.ID != "fuzzjob" {
				t.Fatalf("accepted record %+v: want a known status under id fuzzjob", snap)
			}
		}
	})
}
