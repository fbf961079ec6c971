// Command edramd serves the eDRAM design engine over HTTP: a
// stdlib-only JSON daemon exposing /v1/explore, /v1/recommend,
// /v1/simulate, /v1/datasheet, /v1/experiments, /v1/scenario and the
// async job API (/v1/jobs), with a result cache, request coalescing, a
// shared worker pool, admission control and Prometheus metrics on
// /metrics. SIGINT/SIGTERM drain in-flight requests before the process
// exits; /readyz flips to 503 first so load balancers stop routing.
//
// Usage:
//
//	edramd [-addr :8080] [-workers N] [-cache-entries N]
//	       [-timeout 60s] [-drain 10s] [-queue-depth 32]
//	       [-jobs-dir DIR] [-max-jobs 64] [-max-active-jobs 2]
//	       [-async-threshold N] [-warmup CAP:BW:HIT,...]
//	       [-cache-dir DIR] [-smoke]
//
// -jobs-dir enables resumable jobs: running jobs checkpoint there and
// a restarted daemon resumes them before marking itself ready.
// -warmup primes the explore cache before /readyz goes green.
//
// -cache-dir logs the result cache to disk: responses survive
// restarts in an append-only segment log and /readyz stays 503 until
// the replay completes.
//
// -smoke runs the self-test used by `make serve-smoke`: bind a random
// loopback port, exercise /healthz, /readyz, /v1/recommend, the job
// API and /metrics with real HTTP calls, then deliver SIGTERM to the
// process itself and verify the graceful-drain path shuts the server
// down.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edram/internal/core"
	"edram/internal/service"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edramd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 0, "result cache capacity in entries, under a 256 MiB byte budget (0 = default 4096)")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = default 60s)")
	drain := flag.Duration("drain", 0, "graceful shutdown drain budget (0 = default 10s)")
	queueDepth := flag.Int("queue-depth", 0, "admission queue bound (0 = default 32, negative = unbounded)")
	jobsDir := flag.String("jobs-dir", "", "checkpoint directory for resumable async jobs (empty = memory-only jobs)")
	maxJobs := flag.Int("max-jobs", 0, "job registry capacity (0 = default 64)")
	maxActiveJobs := flag.Int("max-active-jobs", 0, "concurrently running job bound (0 = default 2)")
	asyncThreshold := flag.Int("async-threshold", 0, "convert sync explores over this many sweep points into async jobs (0 = never)")
	warmup := flag.String("warmup", "", "comma-separated CAP_MBIT:BW_GBPS:HIT_RATE triples to pre-explore into the cache before readiness")
	cacheDir := flag.String("cache-dir", "", "directory the result cache is logged to for warm restarts (empty = memory-only caching)")
	smoke := flag.Bool("smoke", false, "run the serve-smoke self-test and exit")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this extra loopback address (e.g. 127.0.0.1:6060); off by default and never exposed on the serving mux")
	flag.Parse()

	cfg := service.Config{
		CacheEntries:        *cacheEntries,
		Workers:             *workers,
		RequestTimeout:      *timeout,
		DrainTimeout:        *drain,
		MaxQueueDepth:       *queueDepth,
		JobDir:              *jobsDir,
		MaxJobs:             *maxJobs,
		MaxActiveJobs:       *maxActiveJobs,
		AsyncPointThreshold: *asyncThreshold,
		CacheDir:            *cacheDir,
		AccessLog:           os.Stdout,
	}
	warmupReqs, err := parseWarmup(*warmup)
	if err != nil {
		fail("%v", err)
	}
	if *smoke {
		if err := runSmoke(cfg); err != nil {
			fail("smoke: %v", err)
		}
		fmt.Println("edramd: smoke ok")
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pprofAddr != "" {
		if err := startPprof(*pprofAddr); err != nil {
			fail("pprof: %v", err)
		}
	}
	srv := service.NewServer(cfg)
	if err := srv.DiskCacheErr(); err != nil {
		fail("disk cache %s: %v", *cacheDir, err)
	}
	if n := srv.DiskStats().ReplayedEntries; n > 0 {
		fmt.Fprintf(os.Stderr, "edramd: disk cache replayed %d entries\n", n)
	}
	// Startup order matters for /readyz: resume persisted jobs, warm
	// the cache, and only then join the load balancer rotation.
	if n, err := srv.ResumeJobs(); err != nil {
		fail("resuming jobs: %v", err)
	} else if n > 0 {
		fmt.Fprintf(os.Stderr, "edramd: resumed %d checkpointed jobs\n", n)
	}
	if len(warmupReqs) > 0 {
		if err := srv.Warmup(ctx, warmupReqs); err != nil {
			fail("warmup: %v", err)
		}
		fmt.Fprintf(os.Stderr, "edramd: cache warmed with %d explores\n", len(warmupReqs))
	}
	srv.MarkReady()
	err = srv.ListenAndServe(ctx, *addr, func(a net.Addr) {
		fmt.Fprintf(os.Stderr, "edramd: listening on %s\n", a)
	})
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintln(os.Stderr, "edramd: drained, shutting down")
}

// parseWarmup parses the -warmup flag: comma-separated
// CAP_MBIT:BW_GBPS:HIT_RATE triples.
func parseWarmup(s string) ([]core.Requirements, error) {
	if s == "" {
		return nil, nil
	}
	var reqs []core.Requirements
	for _, part := range strings.Split(s, ",") {
		var r core.Requirements
		if _, err := fmt.Sscanf(part, "%d:%f:%f", &r.CapacityMbit, &r.BandwidthGBps, &r.HitRate); err != nil {
			return nil, fmt.Errorf("warmup entry %q: want CAP_MBIT:BW_GBPS:HIT_RATE: %v", part, err)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// startPprof serves the runtime profiling endpoints on their own mux
// and listener, fully separate from the API server: the debug surface
// is opt-in, bound to an operator-chosen (typically loopback) address,
// and can never leak onto the serving mux or be reached through it.
// Its lifetime is tied to the process, not the API drain path — an
// operator profiling a shutdown wants /debug/pprof alive through it.
func startPprof(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "edramd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "edramd: pprof server stopped: %v\n", err)
		}
	}()
	return nil
}

// runSmoke is the end-to-end self-test: it exercises the real signal
// handling, listener, handlers and drain path in-process.
func runSmoke(cfg service.Config) error {
	cfg.AccessLog = io.Discard
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	srv := service.NewServer(cfg)
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-errCh:
		return fmt.Errorf("server did not start: %v", err)
	}

	client := &http.Client{Timeout: 30 * time.Second}

	// 1. Liveness — and readiness, which must lag it: the process is
	// alive before it has marked itself ready for traffic.
	if err := expectJSON(client, "GET", base+"/healthz", ""); err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	if body, err := fetch(client, "GET", base+"/readyz", ""); err == nil {
		return fmt.Errorf("readyz answered 200 before MarkReady: %s", body)
	}
	srv.MarkReady()
	if err := expectJSON(client, "GET", base+"/readyz", ""); err != nil {
		return fmt.Errorf("readyz after MarkReady: %v", err)
	}
	// 2. One real recommendation sweep through the full stack.
	req := `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5}`
	if err := expectJSON(client, "POST", base+"/v1/recommend", req); err != nil {
		return fmt.Errorf("recommend: %v", err)
	}
	// 3. The async job API: submit an explore job, poll it to success,
	// fetch the result.
	if err := smokeJob(client, base); err != nil {
		return fmt.Errorf("jobs: %v", err)
	}
	// 4. The scrape endpoint reports the requests we just made.
	body, err := fetch(client, "GET", base+"/metrics", "")
	if err != nil {
		return fmt.Errorf("metrics: %v", err)
	}
	if !strings.Contains(body, "edramd_requests_total") {
		return fmt.Errorf("metrics: edramd_requests_total series missing from scrape")
	}

	// 5. Deliver a real SIGTERM to ourselves and verify the drain path
	// brings ListenAndServe back with a clean shutdown.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return fmt.Errorf("sending SIGTERM: %v", err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			return fmt.Errorf("shutdown: %v", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server did not drain within 30s of SIGTERM")
	}
	return nil
}

// smokeJob drives the async job lifecycle end to end: submit, poll,
// result.
func smokeJob(client *http.Client, base string) error {
	body, err := fetch(client, "POST", base+"/v1/jobs",
		`{"kind":"explore","explore":{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5}}`)
	if err != nil && !strings.Contains(body, `"state"`) {
		return fmt.Errorf("submit: %v", err)
	}
	var status struct {
		ID         string `json:"id"`
		State      string `json:"state"`
		Error      string `json:"error"`
		ResultPath string `json:"result_path"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		return fmt.Errorf("submit response: %v", err)
	}
	for i := 0; i < 300 && status.State == "running"; i++ {
		time.Sleep(100 * time.Millisecond)
		b, err := fetch(client, "GET", base+"/v1/jobs/"+status.ID, "")
		if err != nil {
			return fmt.Errorf("poll: %v", err)
		}
		if err := json.Unmarshal([]byte(b), &status); err != nil {
			return fmt.Errorf("poll response: %v", err)
		}
	}
	if status.State != "succeeded" {
		return fmt.Errorf("job finished %q (error %q), want succeeded", status.State, status.Error)
	}
	if err := expectJSON(client, "GET", base+status.ResultPath, ""); err != nil {
		return fmt.Errorf("result: %v", err)
	}
	return nil
}

// fetch performs one request and returns the body (any status).
func fetch(client *http.Client, method, url, body string) (string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return "", err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(b), fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

// expectJSON performs one request and requires a 200 with a valid JSON
// body.
func expectJSON(client *http.Client, method, url, body string) error {
	b, err := fetch(client, method, url, body)
	if err != nil {
		return err
	}
	var v any
	if err := json.Unmarshal([]byte(b), &v); err != nil {
		return fmt.Errorf("response is not valid JSON: %v", err)
	}
	return nil
}
