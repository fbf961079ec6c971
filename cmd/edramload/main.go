// Command edramload is the SLO harness for edramd: a closed- or
// open-loop load generator that replays a seeded, deterministic
// request schedule (internal/loadgen) against a daemon and judges the
// run against declared latency/error objectives.
//
// Usage:
//
//	edramload [-addr http://host:8080] [-seed 1] [-requests N]
//	          [-concurrency 8] [-rate R] [-json]
//	          [-slo-p50-ms 250] [-slo-p99-ms 5000] [-slo-p999-ms 10000]
//	          [-slo-max-error-frac 0]
//
// With no -addr, edramload self-hosts an in-process edramd configured
// with a deliberately tiny /v1/simulate concurrency budget (so the
// schedule's overload mix actually sheds) and a disk-logged result
// cache pre-warmed with one of the rotate mix's bodies (so the run
// deterministically serves at least one warm-start hit) — this is the deterministic profile `make load-smoke` and CI
// run. The exit status is the verdict: 0 when every SLO held and no
// unexpected errors occurred, 1 on any breach.
//
// The schedule is pure and replayable (same seed, same byte-exact
// request sequence); only the measured latencies vary run to run.
// Deliberate behaviours are excluded from the error budget: 503s on
// overload probes and the harness's own mid-flight disconnects.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edram/internal/core"
	"edram/internal/loadgen"
	"edram/internal/service"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "edramload: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "", "target edramd base URL (empty = self-host an in-process server)")
	requests := flag.Int("requests", 0, "schedule length (0 = the smoke profile's default)")
	concurrency := flag.Int("concurrency", 8, "closed-loop worker count")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in requests/second (0 = closed loop)")
	seed := flag.Int64("seed", 1, "schedule seed (same seed = same request sequence)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON instead of the table")
	p50 := flag.Float64("slo-p50-ms", 0, "p50 latency objective in ms (0 = profile default)")
	p99 := flag.Float64("slo-p99-ms", 0, "p99 latency objective in ms (0 = profile default)")
	p999 := flag.Float64("slo-p999-ms", 0, "p999 latency objective in ms (0 = profile default)")
	maxErr := flag.Float64("slo-max-error-frac", 0, "tolerated fraction of unexpected errors")
	flag.Parse()

	profile := loadgen.SmokeProfile(*seed)
	if *requests > 0 {
		profile.Requests = *requests
	}
	schedule, err := loadgen.Schedule(profile)
	if err != nil {
		fail("%v", err)
	}
	slo := loadgen.DefaultSLO()
	if *p50 > 0 {
		slo.P50Ms = *p50
	}
	if *p99 > 0 {
		slo.P99Ms = *p99
	}
	if *p999 > 0 {
		slo.P999Ms = *p999
	}
	slo.MaxErrorFrac = *maxErr

	base := *addr
	var shutdown func() error
	if base == "" {
		base, shutdown, err = selfHost()
		if err != nil {
			fail("self-host: %v", err)
		}
	}

	outcomes := run(base, schedule, *concurrency, *rate)
	tiers := scrapeTiers(base)
	if shutdown != nil {
		if err := shutdown(); err != nil {
			fail("shutdown: %v", err)
		}
	}

	report := loadgen.Summarize(outcomes)
	report.Tiers = tiers
	if *jsonOut {
		b, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(b))
	} else {
		fmt.Print(report.Format())
	}
	if violations := report.Check(slo); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "edramload: SLO violation: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("edramload: SLOs met")
}

// selfHost starts an in-process edramd on a loopback port, configured
// so every mix has something real to probe: one concurrent
// /v1/simulate at a time (the overload mix's shed target, everything
// else generously budgeted — the global queue bound is disabled so
// only the deliberate target sheds), a result cache logged to a temp
// directory that prewarm has already populated — the main run's first
// draw of that body is a warm-start hit, never a recomputation — and
// a warmed-up delta state for the delta mix's requirement family, so
// its constraint tweaks are served as hit-delta.
func selfHost() (base string, shutdown func() error, err error) {
	dir, err := os.MkdirTemp("", "edramload-cache-")
	if err != nil {
		return "", nil, err
	}
	cleanup := func() { os.RemoveAll(dir) }
	if err := prewarm(dir); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("prewarm: %v", err)
	}
	srv := service.NewServer(service.Config{
		AccessLog:      io.Discard,
		MaxQueueDepth:  -1,
		EndpointBudget: map[string]int{"/v1/simulate": 1},
		CacheDir:       dir,
	})
	if err := srv.DiskCacheErr(); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("disk cache: %v", err)
	}
	// Warm the delta mix's structural family (hit_rate 0.6, no
	// constraint caps) so even its first rotating area-cap body is
	// re-served incrementally from the retained sweep — the run
	// deterministically exercises the hit-delta tier.
	if err := srv.Warmup(context.Background(), []core.Requirements{
		{CapacityMbit: 16, BandwidthGBps: 1.0, HitRate: 0.6},
	}); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("warmup: %v", err)
	}
	srv.MarkReady()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	select {
	case a := <-addrCh:
		return "http://" + a.String(), func() error {
			cancel()
			err := <-errCh
			cleanup()
			return err
		}, nil
	case err := <-errCh:
		cancel()
		cleanup()
		return "", nil, fmt.Errorf("server did not start: %v", err)
	}
}

// prewarmBody is one of the rotate mix's explore bodies (loadgen
// cycles max_power_mw over 400.5..700.5; the first draw is 500.5).
// Computing it into the cache directory ahead of the run makes the
// main server's first rotate draw a deterministic warm-start hit.
const prewarmBody = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5,"max_power_mw":500.5}`

// prewarm computes prewarmBody into dir's disk cache via a throwaway
// server life, then drains it so the snapshot is durable before the
// measured server opens the same directory.
func prewarm(dir string) error {
	srv := service.NewServer(service.Config{AccessLog: io.Discard, CacheDir: dir})
	if err := srv.DiskCacheErr(); err != nil {
		return err
	}
	srv.MarkReady()
	ctx, cancel := context.WithCancel(context.Background())
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
		cancel()
		return fmt.Errorf("prewarm server did not start: %v", err)
	}
	client := &http.Client{Timeout: 2 * time.Minute}
	resp, err := client.Post(base+"/v1/explore", "application/json", strings.NewReader(prewarmBody))
	if err != nil {
		cancel()
		<-errCh
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	cancel()
	if err := <-errCh; err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prewarm explore: status %d", resp.StatusCode)
	}
	return nil
}

// scrapeTiers reads the daemon's /metrics after the run and extracts
// the per-tier cache hit/miss counters for the report. Best-effort: a
// daemon without metrics simply yields no tier lines.
func scrapeTiers(base string) []loadgen.TierStat {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return loadgen.ParseTierStats(string(b))
}

// run replays the schedule. Closed loop: `concurrency` workers each
// issue the next request as soon as their previous one finishes —
// throughput adapts to the server. Open loop: requests launch on a
// fixed arrival clock regardless of completions — latency under a
// non-adaptive arrival process, the regime where queues actually grow.
func run(base string, schedule []loadgen.Request, concurrency int, rate float64) []loadgen.Outcome {
	client := &http.Client{Timeout: 2 * time.Minute}
	outcomes := make([]loadgen.Outcome, len(schedule))
	var wg sync.WaitGroup
	if rate > 0 {
		interval := time.Duration(float64(time.Second) / rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for i := range schedule {
			<-ticker.C
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				outcomes[i] = issue(client, base, schedule[i])
			}(i)
		}
	} else {
		if concurrency < 1 {
			concurrency = 1
		}
		var next atomic.Int64
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(schedule) {
						return
					}
					outcomes[i] = issue(client, base, schedule[i])
				}
			}()
		}
	}
	wg.Wait()
	return outcomes
}

// issue performs one scheduled request and classifies the outcome.
func issue(client *http.Client, base string, r loadgen.Request) loadgen.Outcome {
	out := loadgen.Outcome{Mix: r.Mix, WantShed: r.WantShed}

	var body io.Reader = strings.NewReader(r.Body)
	if r.SlowBody {
		body = &dripReader{s: r.Body, chunk: 8, pause: 5 * time.Millisecond}
	}
	ctx := context.Background()
	if r.Disconnect {
		// Abandon the request mid-flight: the context dies a moment
		// after the request is on the wire. The server's detached
		// compute must finish and fill its cache regardless.
		dctx, cancel := context.WithCancel(ctx)
		time.AfterFunc(2*time.Millisecond, cancel)
		defer cancel()
		ctx = dctx
		out.Disconnected = true
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+r.Path, body)
	if err != nil {
		return out
	}
	req.Header.Set("Content-Type", "application/json")

	//nolint:edramvet/determinism // latency measurement is the harness's entire job
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		// A transport error on a deliberate disconnect is the intended
		// outcome; anywhere else it is an unexpected error (Status 0).
		return out
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	out.LatencyNs = time.Since(start).Nanoseconds()
	out.Status = resp.StatusCode
	return out
}

// dripReader feeds the request body a few bytes at a time with pauses
// between chunks — the slow-client mix.
type dripReader struct {
	s     string
	pos   int
	chunk int
	pause time.Duration
}

func (d *dripReader) Read(p []byte) (int, error) {
	if d.pos >= len(d.s) {
		return 0, io.EOF
	}
	if d.pos > 0 {
		time.Sleep(d.pause)
	}
	n := copy(p, d.s[d.pos:min(d.pos+d.chunk, len(d.s))])
	d.pos += n
	return n, nil
}
