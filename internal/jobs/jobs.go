// Package jobs is the async-job machinery behind the service layer's
// POST /v1/jobs API: a bounded in-memory job store whose entries run
// one goroutine each, report progress, cancel cooperatively, and
// persist resumable checkpoints to disk so a killed or restarted
// daemon picks long-running work back up where the last checkpoint
// left it.
//
// The package is deliberately generic: a job is (id, kind, canonical
// key, raw request, RunFunc). What a checkpoint's state means — a Seq
// watermark plus a partial Pareto frontier for explores, a trial
// watermark plus per-trial summaries for reliability campaigns — is
// the runner's business (internal/service registers the runners). The
// store only guarantees the mechanics: bounded admission, atomic
// checkpoint files, cooperative cancellation, and deterministic
// listing/eviction order.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"sync"
	"time"
)

// FormatVersion is the checkpoint-file schema version (the ckpt/v1
// format documented in DESIGN.md §6). Meaning-changing edits to the
// file layout bump it; loaders reject files from another version
// rather than misread them.
const FormatVersion = 1

// State is a job's lifecycle state.
type State string

const (
	// StateRunning covers submission through completion (there is no
	// queued state: admission is bounded, so a stored job is either
	// executing or terminal).
	StateRunning State = "running"
	// StateSucceeded is terminal with a result.
	StateSucceeded State = "succeeded"
	// StateFailed is terminal with an error message.
	StateFailed State = "failed"
	// StateCancelled is terminal after a DELETE or a daemon shutdown
	// interrupted the run mid-flight (a shutdown-cancelled job's
	// checkpoint survives for resume).
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s != StateRunning }

// known reports whether s is one of the four lifecycle states.
func (s State) known() bool {
	switch s {
	case StateRunning, StateSucceeded, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Progress is the wire-visible progress snapshot a runner publishes.
// Done/Total are in the runner's own unit (design points for explores,
// trials for reliability campaigns, hierarchy levels for scenarios).
type Progress struct {
	Done        int64 `json:"done"`
	Total       int64 `json:"total"`
	Built       int64 `json:"built,omitempty"`
	Infeasible  int64 `json:"infeasible,omitempty"`
	Pruned      int64 `json:"pruned,omitempty"`
	FrontSize   int   `json:"front_size,omitempty"`
	Checkpoints int   `json:"checkpoints"`
}

// RunFunc executes one job. ctx is cancelled by DELETE and by store
// shutdown; the function must return promptly then (returning
// ctx.Err() marks the job cancelled, anything else failed, nil
// succeeded with the returned bytes as the result). h carries the
// resumed checkpoint state and the progress/checkpoint callbacks.
type RunFunc func(ctx context.Context, h *Handle) ([]byte, error)

// Resolver maps a persisted job back to its RunFunc after a restart.
type Resolver func(kind string, req json.RawMessage) (RunFunc, error)

// Typed errors the HTTP layer maps onto statuses.
var (
	// ErrOverloaded: the store is at capacity with no evictable entry,
	// or every active slot is running — the 503 + Retry-After path.
	ErrOverloaded = errors.New("jobs: store overloaded")
	// ErrNotFound: no job under that id.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrClosed: the store has shut down.
	ErrClosed = errors.New("jobs: store closed")
)

// idPattern bounds ids to path-safe characters: ids name checkpoint
// files, so anything else would be a traversal hazard.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,128}$`)

// Config tunes a Store; the zero value gets defaults.
type Config struct {
	// Dir is the checkpoint directory ("" disables persistence: jobs
	// then survive only as long as the process).
	Dir string
	// MaxJobs bounds the total stored entries, running or terminal
	// (default 64). At the cap, terminal jobs are evicted oldest-first;
	// if every entry is still running, submission sheds with
	// ErrOverloaded.
	MaxJobs int
	// MaxActive bounds concurrently running jobs (default 4). There is
	// no pending queue — beyond the bound, submission sheds with
	// ErrOverloaded, keeping overload behavior explicit instead of
	// building invisible backlog.
	MaxActive int
}

func (c Config) withDefaults() Config {
	if c.MaxJobs <= 0 {
		c.MaxJobs = 64
	}
	if c.MaxActive <= 0 {
		c.MaxActive = 4
	}
	return c
}

// Job is one stored entry. All mutable fields are guarded by the
// owning store's mutex.
type Job struct {
	ID   string
	Kind string
	Key  string

	request     json.RawMessage
	state       State
	errMsg      string
	result      []byte
	progress    Progress
	resumed     json.RawMessage
	removed     bool
	seq         int64
	cancel      context.CancelFunc
	done        chan struct{}
	checkpoints int

	// persistMu serializes the job's file writes and removal: each
	// persist snapshots the record under it, so an older snapshot can
	// never land on disk after a newer one.
	persistMu sync.Mutex
}

// Snapshot is a race-free copy of a job's observable state.
type Snapshot struct {
	ID       string
	Kind     string
	Key      string
	State    State
	Error    string
	Progress Progress
	// HasResult is true when State is succeeded and result bytes are
	// available via Store.Result.
	HasResult bool
}

// Store is the bounded job registry. Construct with NewStore.
type Store struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*Job
	seq    int64
	active int
	closed bool

	ctx     context.Context
	cancels context.CancelFunc
	wg      sync.WaitGroup

	// OnCheckpoint, when set (tests only), observes every persisted
	// checkpoint — the hook resume/kill tests synchronize on — with the
	// running job's context, so a hook can hold the runner until the
	// job is cancelled. Set it before the first Submit.
	OnCheckpoint func(ctx context.Context, id string, checkpoints int)
}

// NewStore builds a store. When cfg.Dir is non-empty it is created if
// missing.
func NewStore(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: checkpoint dir: %w", err)
		}
	}
	//nolint:edramvet/ctxflow // store-owned root: async jobs outlive the submitting request by design; Close cancels this ctx on drain
	ctx, cancel := context.WithCancel(context.Background())
	return &Store{
		cfg:     cfg,
		jobs:    map[string]*Job{},
		ctx:     ctx,
		cancels: cancel,
	}, nil
}

// Submit registers and starts a job. Submission is idempotent on id:
// an existing job (any state) is returned with created=false, so
// re-POSTing the same canonical request attaches to the prior run
// instead of duplicating work — the job-store analogue of request
// coalescing.
func (s *Store) Submit(id, kind, key string, req json.RawMessage, run RunFunc) (Snapshot, bool, error) {
	if !idPattern.MatchString(id) {
		return Snapshot{}, false, fmt.Errorf("jobs: invalid job id %q", id)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Snapshot{}, false, ErrClosed
	}
	if j, ok := s.jobs[id]; ok {
		snap := j.snapshotLocked()
		s.mu.Unlock()
		return snap, false, nil
	}
	if s.active >= s.cfg.MaxActive {
		s.mu.Unlock()
		return Snapshot{}, false, fmt.Errorf("%w: %d jobs already running", ErrOverloaded, s.cfg.MaxActive)
	}
	var evicted *Job
	if len(s.jobs) >= s.cfg.MaxJobs {
		victim, ok := s.evictLocked()
		if !ok {
			s.mu.Unlock()
			return Snapshot{}, false, fmt.Errorf("%w: %d jobs stored, none evictable", ErrOverloaded, s.cfg.MaxJobs)
		}
		evicted = victim
	}
	j := s.newJobLocked(id, kind, key, req, nil)
	start := s.launchLocked(j, run)
	snap := j.snapshotLocked()
	s.mu.Unlock()

	// Disk work happens outside the lock: drop the evicted job's
	// checkpoint, then persist the birth record — a fresh running job
	// with no state yet, so a crash before the first checkpoint still
	// restarts the job after resume. The runner starts only after the
	// birth record is on disk, so no checkpoint of it can come first.
	if evicted != nil {
		s.removeFile(evicted)
	}
	s.persist(j)
	start()
	return snap, true, nil
}

// newJobLocked allocates and registers a job entry.
func (s *Store) newJobLocked(id, kind, key string, req, resumed json.RawMessage) *Job {
	s.seq++
	j := &Job{
		ID:      id,
		Kind:    kind,
		Key:     key,
		request: append(json.RawMessage(nil), req...),
		state:   StateRunning,
		resumed: resumed,
		seq:     s.seq,
		done:    make(chan struct{}),
	}
	s.jobs[id] = j
	return j
}

// launchLocked reserves an active slot for a registered job and
// returns the function that starts its runner goroutine; the caller
// calls it after releasing s.mu.
func (s *Store) launchLocked(j *Job, run RunFunc) (start func()) {
	ctx, cancel := context.WithCancel(s.ctx)
	j.cancel = cancel
	s.active++
	s.wg.Add(1)
	return func() { go s.runJob(ctx, cancel, j, run) }
}

// runJob executes a launched job and records its outcome.
func (s *Store) runJob(ctx context.Context, cancel context.CancelFunc, j *Job, run RunFunc) {
	defer s.wg.Done()
	defer cancel()
	result, err := run(ctx, &Handle{store: s, job: j, ctx: ctx})

	s.mu.Lock()
	s.active--
	switch {
	case err == nil:
		j.state = StateSucceeded
		j.result = result
	case errors.Is(err, context.Canceled) || ctx.Err() != nil:
		j.state = StateCancelled
		j.errMsg = "cancelled"
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	persistTerminal := !j.removed && j.state != StateCancelled
	s.mu.Unlock()

	// A cancelled job keeps its last checkpoint file untouched:
	// shutdown-cancelled work must resume from it after restart.
	// Success and failure overwrite the file with the terminal
	// record so restarts serve the outcome instead of re-running.
	if persistTerminal {
		s.persist(j)
	}
	close(j.done)
}

// evictLocked drops the oldest terminal job from the in-memory table
// and returns it; the caller deletes the checkpoint file after
// releasing s.mu (disk I/O must not run under the lock — it would
// stall every snapshot read behind the filesystem). Map iteration
// feeds a sort, so eviction order is deterministic.
func (s *Store) evictLocked() (*Job, bool) {
	var terminal []*Job
	for _, j := range s.jobs {
		terminal = append(terminal, j)
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].seq < terminal[k].seq })
	for _, j := range terminal {
		if j.state.Terminal() {
			j.removed = true
			delete(s.jobs, j.ID)
			return j, true
		}
	}
	return nil, false
}

// Get returns a snapshot of the job.
func (s *Store) Get(id string) (Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshotLocked(), true
}

// Result returns a snapshot of the job together with its exact result
// bytes (nil unless the job succeeded), both read under one lock: a
// job deleted or evicted in between cannot pair a succeeded snapshot
// with missing bytes.
func (s *Store) Result(id string) (Snapshot, []byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, nil, false
	}
	snap := j.snapshotLocked()
	if snap.State != StateSucceeded {
		return snap, nil, true
	}
	return snap, j.result, true
}

// Request returns the raw request a job was submitted with.
func (s *Store) Request(id string) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return append(json.RawMessage(nil), j.request...), true
}

// Delete cancels a running job and removes the entry and its
// checkpoint file. Cancellation is cooperative: the runner observes
// its context and unwinds; Delete does not wait for it.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	j.removed = true
	delete(s.jobs, id)
	cancel := j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.removeFile(j)
	return nil
}

// List returns snapshots in submission order.
func (s *Store) List() []Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(i, k int) bool { return all[i].seq < all[k].seq })
	out := make([]Snapshot, len(all))
	for i, j := range all {
		out[i] = j.snapshotLocked()
	}
	return out
}

// Active is the number of currently running jobs.
func (s *Store) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (s *Store) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.snapshotLocked(), nil
}

// Close cancels every running job and waits (bounded by timeout) for
// the runner goroutines to unwind. Cancelled jobs keep their last
// checkpoint, so a subsequent NewStore+Resume on the same directory
// continues them.
func (s *Store) Close(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.cancels()

	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("jobs: %d jobs still unwinding after %v", s.Active(), timeout)
	}
}

func (j *Job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:        j.ID,
		Kind:      j.Kind,
		Key:       j.Key,
		State:     j.state,
		Error:     j.errMsg,
		Progress:  j.progress,
		HasResult: j.state == StateSucceeded && len(j.result) > 0,
	}
}

// Handle is the runner's view of its job; ctx is the context the
// runner was given, which Checkpoint hands to OnCheckpoint.
type Handle struct {
	store *Store
	job   *Job
	ctx   context.Context
}

// Resumed returns the checkpoint state the job was restarted with
// (nil on a fresh submission).
func (h *Handle) Resumed() json.RawMessage { return h.job.resumed }

// SetProgress publishes a progress snapshot (the checkpoint counter is
// store-owned and preserved across calls).
func (h *Handle) SetProgress(p Progress) {
	h.store.mu.Lock()
	p.Checkpoints = h.job.checkpoints
	h.job.progress = p
	h.store.mu.Unlock()
}

// Checkpoint atomically persists the runner's state. On return the
// file on disk describes a resumable job at exactly this watermark —
// the contract the kill/restart parity test pins.
func (h *Handle) Checkpoint(state json.RawMessage) error {
	s, j := h.store, h.job
	s.mu.Lock()
	j.resumed = append(json.RawMessage(nil), state...)
	j.checkpoints++
	j.progress.Checkpoints = j.checkpoints
	n := j.checkpoints
	s.mu.Unlock()
	if err := s.persist(j); err != nil {
		return err
	}
	if s.OnCheckpoint != nil {
		s.OnCheckpoint(h.ctx, j.ID, n)
	}
	return nil
}
