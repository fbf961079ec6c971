package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointFile is the on-disk ckpt/v1 record — one JSON file per
// job under Config.Dir, named <id>.json. The same file serves two
// lives: while the job runs it is the resumable checkpoint (request +
// runner state at the last watermark); once terminal it is the job
// record (status + result or error), so restarts answer GETs for
// finished jobs without re-running anything.
//
// Result is []byte rather than json.RawMessage on purpose: RawMessage
// round-trips through encoding/json compaction, which would strip the
// trailing newline Encode appends and break the byte-parity contract.
// Base64 preserves the result bytes exactly.
type checkpointFile struct {
	FormatVersion int             `json:"format_version"`
	ID            string          `json:"id"`
	Kind          string          `json:"kind"`
	Key           string          `json:"canonical_key"`
	Status        State           `json:"status"`
	Request       json.RawMessage `json:"request"`
	State         json.RawMessage `json:"state,omitempty"`
	Progress      Progress        `json:"progress"`
	Error         string          `json:"error,omitempty"`
	Result        []byte          `json:"result,omitempty"`
}

func (s *Store) path(id string) string {
	return filepath.Join(s.cfg.Dir, id+".json")
}

// persist writes the job's current record atomically (tmp + rename):
// readers — including a restarted daemon's Resume scan — only ever see
// a complete file at some watermark, never a torn write.
func (s *Store) persist(j *Job) error {
	if s.cfg.Dir == "" {
		return nil
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	s.mu.Lock()
	if j.removed {
		s.mu.Unlock()
		return nil
	}
	rec := checkpointFile{
		FormatVersion: FormatVersion,
		ID:            j.ID,
		Kind:          j.Kind,
		Key:           j.Key,
		Status:        j.state,
		Request:       j.request,
		State:         j.resumed,
		Progress:      j.progress,
		Error:         j.errMsg,
		Result:        j.result,
	}
	s.mu.Unlock()

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode checkpoint %s: %w", j.ID, err)
	}
	//nolint:edramvet/locks // persistMu guards this one job's file: only its own later writes wait, and they must
	return s.commit(j.ID, append(data, '\n'))
}

// commit writes a job's record to its tmp file and renames it into
// place.
func (s *Store) commit(id string, data []byte) error {
	final := s.path(id)
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("jobs: write checkpoint %s: %w", id, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("jobs: commit checkpoint %s: %w", id, err)
	}
	return nil
}

// removeFile deletes a removed job's checkpoint. It waits out a
// persist already writing, and any later persist sees j.removed and
// writes nothing.
func (s *Store) removeFile(j *Job) {
	if s.cfg.Dir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	for _, name := range []string{s.path(j.ID), s.path(j.ID) + ".tmp"} {
		//nolint:edramvet/locks // persistMu guards this one job's file: only its own writes wait, and they must
		_ = os.Remove(name)
	}
}

// Resume scans the checkpoint directory and rebuilds the store's
// entries: terminal records become queryable terminal jobs; running
// records are restarted through the resolver with their persisted
// state handed to the runner via Handle.Resumed. Files from another
// format version, with an unknown status or with unresolvable kinds
// are left on disk and reported, never deleted. Call once, after NewStore and before
// serving traffic.
func (s *Store) Resume(resolve Resolver) (restarted int, err error) {
	if s.cfg.Dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return 0, fmt.Errorf("jobs: scan checkpoint dir: %w", err)
	}
	var errs []error
	for _, e := range entries { // ReadDir sorts by name: deterministic order
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.cfg.Dir, name))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var rec checkpointFile
		if err := json.Unmarshal(data, &rec); err != nil {
			errs = append(errs, fmt.Errorf("jobs: checkpoint %s: %w", name, err))
			continue
		}
		if rec.FormatVersion != FormatVersion {
			errs = append(errs, fmt.Errorf("jobs: checkpoint %s: format_version %d, want %d", name, rec.FormatVersion, FormatVersion))
			continue
		}
		if !idPattern.MatchString(rec.ID) || name != rec.ID+".json" {
			errs = append(errs, fmt.Errorf("jobs: checkpoint %s: id %q does not match file", name, rec.ID))
			continue
		}
		if !rec.Status.known() {
			errs = append(errs, fmt.Errorf("jobs: checkpoint %s: unknown status %q", name, rec.Status))
			continue
		}

		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			errs = append(errs, ErrClosed)
			break
		}
		if _, dup := s.jobs[rec.ID]; dup {
			s.mu.Unlock()
			continue
		}
		if rec.Status.Terminal() {
			j := s.newJobLocked(rec.ID, rec.Kind, rec.Key, rec.Request, nil)
			j.state = rec.Status
			j.errMsg = rec.Error
			j.result = rec.Result
			j.progress = rec.Progress
			j.checkpoints = rec.Progress.Checkpoints
			close(j.done)
			s.mu.Unlock()
			continue
		}
		run, rerr := resolve(rec.Kind, rec.Request)
		if rerr != nil {
			s.mu.Unlock()
			errs = append(errs, fmt.Errorf("jobs: checkpoint %s: %w", name, rerr))
			continue
		}
		j := s.newJobLocked(rec.ID, rec.Kind, rec.Key, rec.Request, rec.State)
		j.progress = rec.Progress
		j.checkpoints = rec.Progress.Checkpoints
		start := s.launchLocked(j, run)
		restarted++
		s.mu.Unlock()
		start()
	}
	return restarted, errors.Join(errs...)
}
