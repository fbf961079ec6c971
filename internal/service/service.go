// Package service is the production HTTP layer over the edram facade:
// a stdlib-only JSON daemon (cmd/edramd) exposing exploration,
// recommendation, simulation, datasheets and the experiment suite.
// Three scaling layers sit between the socket and the model:
//
//  1. one canonical-key result cache (a diskcache.Cache, logged to
//     disk when CacheDir is set) — identical requests are served from
//     memory, byte-identical to the original computation;
//  2. request coalescing (flightGroup) — concurrent identical misses
//     run the computation once and share the bytes;
//  3. a bounded shared worker pool (WorkerPool) — the process-wide
//     evaluation budget that concurrent sweeps split between them.
//
// Every request carries a deadline (the context flows end-to-end into
// the engine), bodies are size-capped, and shutdown drains in-flight
// work before the listener closes.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"edram/internal/core"
	"edram/internal/diskcache"
	"edram/internal/jobs"
)

// Config tunes the server; the zero value gets sensible defaults.
type Config struct {
	// CacheEntries caps the result cache (default 4096 entries, under
	// a fixed 256 MiB byte budget). Entries never expire: a response
	// is a pure function of its canonical key and CacheGeneration().
	CacheEntries int
	// Workers is the shared evaluation-worker budget
	// (default GOMAXPROCS).
	Workers int
	// RequestTimeout bounds each request end-to-end, compute included
	// (default 60s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxSimRequests caps the total request count of one /v1/simulate
	// call (default 2,000,000; negative disables the cap).
	MaxSimRequests int64
	// AccessLog receives one JSON line per request (nil = no log).
	AccessLog io.Writer

	// MaxQueueDepth bounds computations admitted beyond the worker
	// capacity (default 32; negative disables the bound). Past it,
	// requests shed immediately with 503 + Retry-After instead of
	// queueing invisibly.
	MaxQueueDepth int
	// EndpointBudget caps concurrent computations per endpoint; any
	// endpoint absent from the map gets DefaultEndpointBudget
	// (default 2*Workers+2; negative disables).
	EndpointBudget        map[string]int
	DefaultEndpointBudget int

	// JobDir is the async-job checkpoint directory ("" keeps jobs
	// memory-only: no resume across restarts).
	JobDir string
	// MaxJobs / MaxActiveJobs bound the job store (defaults 64 / 2).
	MaxJobs       int
	MaxActiveJobs int
	// JobCheckpointEvery is the explore job checkpoint cadence in
	// design points (default 250,000).
	JobCheckpointEvery int
	// AsyncPointThreshold converts a synchronous POST /v1/explore
	// whose sweep exceeds this many design points into an async job
	// (202 + job id). 0 disables the escape hatch.
	AsyncPointThreshold int

	// CacheDir logs the result cache to a segment in this directory,
	// so a restarted daemon serves its hot keys without recomputation
	// ("" keeps the cache memory-only). The segment replays
	// synchronously in NewServer, before the daemon marks itself ready.
	CacheDir string
}

func (c Config) withDefaults() Config {
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxSimRequests == 0 {
		c.MaxSimRequests = 2_000_000
	}
	if c.MaxQueueDepth == 0 {
		c.MaxQueueDepth = 32
	}
	if c.DefaultEndpointBudget == 0 {
		c.DefaultEndpointBudget = 2*c.Workers + 2
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 64
	}
	if c.MaxActiveJobs == 0 {
		c.MaxActiveJobs = 2
	}
	if c.JobCheckpointEvery <= 0 {
		c.JobCheckpointEvery = 250_000
	}
	return c
}

// endpointBudgets resolves the per-endpoint concurrency limits: the
// explicit map entries over the default for every compute endpoint.
func (c Config) endpointBudgets() map[string]int {
	limits := map[string]int{}
	for _, ep := range []string{"/v1/explore", "/v1/recommend", "/v1/simulate", "/v1/experiments", "/v1/scenario"} {
		limits[ep] = c.DefaultEndpointBudget
	}
	for ep, n := range c.EndpointBudget {
		limits[ep] = n
	}
	return limits
}

// Readiness states reported by GET /readyz.
const (
	readyStarting int32 = iota // warm-up / job resume not finished
	readyOK                    // serving
	readyDraining              // graceful shutdown in progress
)

// Server is the HTTP service. Construct with NewServer.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	flights   flightGroup
	pool      *WorkerPool
	metrics   *Metrics
	logger    *slog.Logger
	admission *admission
	readiness atomic.Int32

	// jobsStore is the async-job registry; jobsErr records a failed
	// store initialization (bad JobDir) so the jobs endpoints report
	// it instead of panicking.
	jobsStore *jobs.Store
	jobsErr   error

	// cache is the result cache, logged to CacheDir when one is set;
	// diskErr records a failed open (the cache then stays memory-only)
	// so the daemon can refuse to start instead of silently serving
	// cold.
	cache   *diskcache.Cache
	diskErr error

	// Metric handles resolved once at construction.
	inFlight        *Gauge
	workersInUse    *Gauge
	workersCap      *Gauge
	cacheHits       *Counter
	cacheMisses     *Counter
	cacheEvicts     *Counter
	coalescedReqs   *Counter
	admissionQueued *Gauge
	jobsActive      *Gauge

	// Tiered-cache counters: the result cache is tier "memory" (its
	// index is in RAM whether or not it is logged to disk). Tier label
	// values are construction-time literals (closed set).
	tierMemHits   *Counter
	tierMemMisses *Counter

	// Delta-tier state and counters (see deltaserve.go): explore
	// requests whose byte-identity misses but whose requirement
	// structure matches a retained sweep are re-served incrementally.
	deltaStates     *deltaIndex
	tierDeltaHits   *Counter
	tierDeltaMisses *Counter
	deltaSwept      *Counter
	deltaReused     *Counter

	// computeStarted, when set (tests only), observes every cache-miss
	// computation as it begins — the barrier the coalescing tests
	// synchronize on. admittedHook fires after a computation passes the
	// admission gate — the barrier the overload tests synchronize on.
	computeStarted func(endpoint, key string)
	admittedHook   func(endpoint string)
}

// NewServer builds a server with its own cache, flight group, worker
// pool and metrics registry.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		pool:      NewWorkerPool(cfg.Workers),
		metrics:   m,
		admission: newAdmission(cfg.Workers, cfg.MaxQueueDepth, cfg.endpointBudgets()),

		inFlight:        m.Gauge("edramd_in_flight_requests", "Requests currently being served."),
		workersInUse:    m.Gauge("edramd_workers_in_use", "Evaluation workers currently acquired."),
		workersCap:      m.Gauge("edramd_workers_capacity", "Evaluation worker pool capacity."),
		cacheHits:       m.Counter("edramd_cache_hits_total", "Responses served from the result cache."),
		cacheMisses:     m.Counter("edramd_cache_misses_total", "Responses computed on a cache miss."),
		cacheEvicts:     m.Counter("edramd_cache_evictions_total", "Cache entries evicted by the entry/byte budget."),
		coalescedReqs:   m.Counter("edramd_coalesced_requests_total", "Requests that joined an in-flight identical computation."),
		admissionQueued: m.Gauge("edramd_admission_queued", "Computations admitted and not yet released."),
		jobsActive:      m.Gauge("edramd_jobs_active", "Async jobs currently running."),

		tierMemHits:   m.Counter("edramd_cache_tier_hits_total", "Cache hits by tier.", Label{"tier", "memory"}),
		tierMemMisses: m.Counter("edramd_cache_tier_misses_total", "Cache misses by tier.", Label{"tier", "memory"}),

		deltaStates:     newDeltaIndex(),
		tierDeltaHits:   m.Counter("edramd_cache_tier_hits_total", "Cache hits by tier.", Label{"tier", "delta"}),
		tierDeltaMisses: m.Counter("edramd_cache_tier_misses_total", "Cache misses by tier.", Label{"tier", "delta"}),
		deltaSwept:      m.Counter("edramd_delta_swept_points_total", "Design points swept fresh by delta re-explorations."),
		deltaReused:     m.Counter("edramd_delta_reused_evals_total", "Retained evaluations reused by delta re-explorations."),
	}
	s.workersCap.Set(int64(cfg.Workers))
	// The segment replays synchronously here, so a warm-starting daemon
	// holds /readyz at 503 "starting" until the cache is fully rebuilt
	// (MarkReady comes after NewServer returns).
	opts := diskcache.Options{MaxEntries: cfg.CacheEntries, Generation: CacheGeneration()}
	if s.cache, s.diskErr = diskcache.Open(cfg.CacheDir, opts); s.diskErr != nil {
		s.cache, _ = diskcache.Open("", opts)
	}
	s.jobsStore, s.jobsErr = jobs.NewStore(jobs.Config{
		Dir:       cfg.JobDir,
		MaxJobs:   cfg.MaxJobs,
		MaxActive: cfg.MaxActiveJobs,
	})
	logOut := cfg.AccessLog
	if logOut == nil {
		logOut = io.Discard
	}
	s.logger = slog.New(slog.NewJSONHandler(logOut, nil))

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/explore", s.handleExplore)
	s.mux.HandleFunc("POST /v1/recommend", s.handleRecommend)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/datasheet", s.handleDatasheet)
	s.mux.HandleFunc("POST /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/scenario", s.handleScenario)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	return s
}

// MarkReady flips /readyz to 200. The daemon calls it once job resume
// and cache warm-up have completed; until then load balancers keep the
// instance out of rotation while /healthz already answers.
func (s *Server) MarkReady() { s.readiness.CompareAndSwap(readyStarting, readyOK) }

// DiskCacheErr reports a failed open of CacheDir. The daemon checks it
// at startup and refuses to serve rather than running silently without
// the warm start it was configured with.
func (s *Server) DiskCacheErr() error { return s.diskErr }

// DiskStats snapshots the result cache's counters — the warm-start
// smoke and tests read it. The replay counters stay zero without a
// CacheDir.
func (s *Server) DiskStats() diskcache.Stats { return s.cache.Stats() }

// CacheGeneration is the disk tier's generation tag: the wire schema
// version plus every canonical-key tag version that can appear in a
// cached response's identity. Bumping any of them (see DESIGN.md §6)
// changes the tag, so a snapshot written under the old schema
// self-invalidates at open instead of replaying wrong bytes.
//
// shard/v1 stays in the tag list although the daemon no longer serves
// shard sub-requests: removing it would change the tag, and segments
// written before the retirement would be discarded instead of
// replaying (their shard/v1 entries are simply never read).
func CacheGeneration() string {
	return fmt.Sprintf("edram/gen|schema=%d|tags=req/v2,spec/v2,proc/v1,sim/v2,exp/v2,scn/v1,job/v1,trials/v1,shard/v1",
		SchemaVersion)
}

// lookup consults the result cache; a hit is served as X-Cache "hit".
func (s *Server) lookup(key string) ([]byte, bool) {
	val, ok := s.cache.Get(key)
	if ok {
		s.cacheHits.Inc()
		s.tierMemHits.Inc()
	} else {
		s.tierMemMisses.Inc()
	}
	return val, ok
}

// fill stores freshly computed response bytes in the result cache.
func (s *Server) fill(key string, b []byte) {
	s.cacheEvicts.Add(int64(s.cache.Put(key, b)))
}

// Warmup primes the result cache with the explore responses for the
// given requirement sets. The daemon runs it before MarkReady so an
// instance enters rotation with its hot keys already served from
// memory instead of absorbing a thundering herd cold.
func (s *Server) Warmup(ctx context.Context, reqs []core.Requirements) error {
	for _, req := range reqs {
		if err := req.Validate(); err != nil {
			return fmt.Errorf("warmup %s: %w", req.CanonicalKey(), err)
		}
		// The recording path: a warmed instance can serve constraint
		// tweaks of its warm keys through the delta tier immediately.
		resp, err := s.buildExploreRecorded(ctx, req, s.cfg.Workers)
		if err != nil {
			return fmt.Errorf("warmup %s: %w", req.CanonicalKey(), err)
		}
		b, err := Encode(resp)
		if err != nil {
			return err
		}
		s.fill(HashKey("explore", req.CanonicalKey()), b)
	}
	return nil
}

// markDraining flips /readyz to 503 "draining" for the rest of the
// process lifetime.
func (s *Server) markDraining() { s.readiness.Store(readyDraining) }

// Close shuts the async-job store down (running jobs are cancelled
// cooperatively and keep their last checkpoint for the next life) and
// snapshots the result cache to CacheDir for the next boot's warm
// start.
// ListenAndServe calls it after the HTTP drain; tests that never serve
// call it directly.
func (s *Server) Close() error {
	var err error
	if s.jobsStore != nil {
		err = s.jobsStore.Close(s.cfg.DrainTimeout)
	}
	if cerr := s.cache.Close(); err == nil {
		err = cerr
	}
	return err
}

// shedTotal / admittedTotal / jobsSubmitted resolve the labeled
// overload counters (labels are from closed sets: endpointLabel output
// and fixed reason/kind strings — not client-controlled).
func (s *Server) shedTotal(endpoint, reason string) *Counter {
	return s.metrics.Counter("edramd_shed_total", "Requests shed by admission control.",
		Label{"endpoint", endpoint}, Label{"reason", reason})
}

func (s *Server) admittedTotal(endpoint string) *Counter {
	return s.metrics.Counter("edramd_admitted_total", "Computations admitted past the gate.",
		Label{"endpoint", endpoint})
}

func (s *Server) jobsSubmitted(kind string) *Counter {
	return s.metrics.Counter("edramd_jobs_submitted_total", "Async jobs created.",
		Label{"kind", kind})
}

// Metrics exposes the server's registry (the daemon and tests read it;
// GET /metrics renders it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// knownEndpoints is the closed route set used as the metrics
// "endpoint" label. Raw request paths are client-controlled: labeling
// by them would let any unauthenticated client mint unbounded metric
// series (each a permanent counter + histogram), so unmatched paths
// collapse into one "other" bucket.
var knownEndpoints = map[string]bool{
	"/healthz":        true,
	"/readyz":         true,
	"/metrics":        true,
	"/v1/explore":     true,
	"/v1/recommend":   true,
	"/v1/simulate":    true,
	"/v1/datasheet":   true,
	"/v1/experiments": true,
	"/v1/scenario":    true,
	"/v1/jobs":        true,
}

// endpointLabel normalizes a request path to the known route set.
// Job-instance paths (/v1/jobs/{id}...) collapse into "/v1/jobs": the
// id segment is client-controlled and must not mint metric series.
func endpointLabel(path string) string {
	if knownEndpoints[path] {
		return path
	}
	if strings.HasPrefix(path, "/v1/jobs/") {
		return "/v1/jobs"
	}
	return "other"
}

// statusRecorder captures the status code for logging and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: body cap, per-request deadline,
// in-flight gauge, latency histogram and access log around the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	//nolint:edramvet/determinism // request latency measurement is intentionally wall-clock
	start := time.Now()
	s.inFlight.Inc()
	defer s.inFlight.Dec()

	if r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r.WithContext(ctx))

	elapsed := time.Since(start).Seconds()
	endpoint := endpointLabel(r.URL.Path)
	s.metrics.Counter("edramd_requests_total", "Requests served by endpoint and status code.",
		Label{"endpoint", endpoint}, Label{"code", fmt.Sprintf("%d", rec.status)}).Inc()
	s.metrics.Histogram("edramd_request_seconds", "Request latency in seconds.",
		DefaultLatencyBuckets, Label{"endpoint", endpoint}).Observe(elapsed)
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", rec.status),
		slog.Float64("seconds", elapsed),
		slog.String("cache", rec.Header().Get("X-Cache")),
	)
}

// writeJSON writes v in the canonical wire encoding with the given
// status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := Encode(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
}

// writeError maps an error to its status and the ErrorResponse schema.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{SchemaVersion: SchemaVersion, Error: err.Error()})
}

// errStatus maps a compute error to an HTTP status: timeouts are 504,
// everything else from the model layer is a 422 (the request was
// well-formed JSON but describes something the model rejects or cannot
// build).
func errStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// decodeBody decodes the JSON request body into v, mapping the
// oversized-body error to 413 and malformed JSON to 400. It returns
// false after writing the error response.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	b, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %w", err))
		}
		return false
	}
	if len(b) == 0 {
		b = []byte("{}")
	}
	if err := strictUnmarshal(b, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// cached is the shared read path below the handlers: cache lookup,
// then coalesced computation, then cache fill. It returns the bytes
// and their X-Cache value: "hit", "coalesced" for a follower that
// waited on an identical computation, and for the leader either the
// non-empty tag compute reports (the delta tier's "hit-delta") or
// "miss". compute returns the canonical encoded response bytes. It
// runs on a context detached from ctx (a disconnecting initiator must
// not kill the waiters that coalesced onto it) but still bounded by
// RequestTimeout.
func (s *Server) cached(ctx context.Context, endpoint, key string, compute func(ctx context.Context) ([]byte, string, error)) ([]byte, string, error) {
	if val, ok := s.lookup(key); ok {
		return val, "hit", nil
	}
	// Written only inside the leader's closure, read only after Do
	// returns in the leader's own call — followers never run the
	// closure and never read it.
	tag := "miss"
	val, err, coalesced := s.flights.Do(ctx, key, func() ([]byte, error) {
		s.cacheMisses.Inc()
		if s.computeStarted != nil {
			s.computeStarted(endpoint, key)
		}
		//nolint:edramvet/ctxflow // deliberate detach: coalesced followers must not lose the shared compute when the leader request disconnects; the timeout re-bounds it
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		b, t, err := compute(cctx)
		if err != nil {
			return nil, err
		}
		if t != "" {
			tag = t
		}
		s.fill(key, b)
		return b, nil
	})
	if coalesced {
		s.coalescedReqs.Inc()
		tag = "coalesced"
	}
	return val, tag, err
}

// serveCached writes what cached returns for key, with its X-Cache
// value.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, endpoint, key string, compute func(ctx context.Context) ([]byte, error)) {
	s.serveCachedTagged(w, r, endpoint, key, func(ctx context.Context) ([]byte, string, error) {
		b, err := compute(ctx)
		return b, "", err
	})
}

// serveCachedTagged is serveCached for computations that can report a
// serving tier of their own (see cached).
func (s *Server) serveCachedTagged(w http.ResponseWriter, r *http.Request, endpoint, key string, compute func(ctx context.Context) ([]byte, string, error)) {
	val, tag, err := s.cached(r.Context(), endpoint, key, compute)
	w.Header().Set("X-Cache", tag)
	if err != nil {
		var oe *overloadError
		if errors.As(err, &oe) {
			writeOverload(w, oe)
			return
		}
		writeError(w, errStatus(err), err)
		return
	}
	writeBytes(w, val)
}

// writeBytes writes pre-encoded canonical JSON.
func writeBytes(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// acquireWorkers grants the request a share of the pool for its
// computation, updating the in-use gauge. The returned release must be
// called exactly once.
func (s *Server) acquireWorkers(ctx context.Context, want int) (got int, release func(), err error) {
	got, err = s.pool.AcquireUpTo(ctx, want)
	if err != nil {
		return 0, nil, err
	}
	s.workersInUse.Add(int64(got))
	return got, func() {
		s.pool.Release(got)
		s.workersInUse.Add(int64(-got))
	}, nil
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests run to completion
// (bounded by DrainTimeout), and only then does the call return. ready,
// when non-nil, receives the bound address once the listener is up
// (addr may carry port 0).
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout bounds the body read too: without it a slow-body
		// (slowloris-style) client holds its connection and goroutine
		// past the per-request deadline, which cannot interrupt the
		// handler's blocking body read on its own.
		ReadTimeout: s.cfg.RequestTimeout,
		//nolint:edramvet/ctxflow // per-connection root: request contexts must outlive the accept-loop ctx so draining can finish in-flight work
		BaseContext: func(net.Listener) context.Context { return context.Background() },
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		// Flip /readyz to draining first, so load balancers stop
		// routing here while in-flight requests finish.
		s.markDraining()
		//nolint:edramvet/ctxflow // the parent ctx is already cancelled here; the drain deadline needs a fresh root or Shutdown would abort instantly
		shutCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(shutCtx)
		<-done // Serve has returned http.ErrServerClosed
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		return err
	case err := <-done:
		return err
	}
}
