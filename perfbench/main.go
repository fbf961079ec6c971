// Command perfbench is the end-to-end benchmark of edramd: it hosts the
// real service.Server in its own process on a loopback listener and
// drives it with a closed loop of 2 clients, each replaying its own
// seeded request sequence over one connection.
//
// A run repeats whole cycles of daemon lives. The seed fixes the inputs
// of each life of a cycle; for each, an untimed previous life first
// fills a disk-tier directory. Every life then copies that segment into
// a fresh directory, boots a daemon on it the way edramd boots (replay,
// warmup, listen; timed until the first /readyz 200), replays every
// client's whole sequence once and drains. The first cycle is the check
// cycle: every reply is verified and a seeded sample is compared with
// independent oracles, outside any timed window. Later cycles are timed
// until --seconds of load have been measured; their replies must repeat
// the check cycle's bytes exactly. One untimed warm-up cycle sits
// between the check cycle and the timed ones.
//
// Usage (from the repository root; see README.md):
//
//	bash perfbench/run.sh --workload cold-explore|design-session|controller-sim \
//	    --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh --workload W --repeat 10 [--seed N] [--seconds S] [--trace 0|1]
//	bash perfbench/run.sh --digest [--seed N]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: end-to-end metrics with
// --trace 0, per-layer metrics of the traced run with --trace 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// buildDir is the benchmark's scratch area inside the checkout.
const buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var o options
	var trace, repeat int
	var digest bool
	flag.StringVar(&o.workload, "workload", designSession, "workload: cold-explore, design-session or controller-sim")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds of timed load to measure")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times, each in a fresh process with the next seed, and print each metric's median and quartiles")
	flag.BoolVar(&digest, "digest", false, "print the digest of the controller-sim responses for --seed, computed without the daemon, and exit")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; see -h")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if digest {
		sum, n, err := simDigest(o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("controller-sim seed=%d responses=%d sha256=%s\n", o.seed, n, sum)
		return 0
	}
	if repeat > 0 {
		if err := repeatRuns(ctx, o, repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	res, err := runBenchmark(ctx, o)
	if res != nil {
		line, _ := json.Marshal(res)
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runBenchmark runs one workload and returns its result line.
func runBenchmark(ctx context.Context, o options) (*result, error) {
	lives, err := NewRun(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	segments := make([]string, len(lives))
	for k, p := range lives {
		prev := filepath.Join(tmp, fmt.Sprintf("previous-life-%d", k))
		if err := previousLife(ctx, prev, p); err != nil {
			return nil, err
		}
		segments[k] = filepath.Join(prev, segmentName)
	}

	res := &result{Correct: true}
	fail := func(p *Plan, c, i int, err error) {
		res.Failed++
		if res.Failed <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: life seed %d client %d request %d (%s): %v\n", p.Seed, c, i, p.Clients[c][i].Path, err)
		}
	}
	// The check cycle: every life once, every reply verified.
	checks := make([]*life, len(lives))
	served := map[string]int{}
	for k, p := range lives {
		r, err := runLife(ctx, tmp, segments[k], p, true)
		if err != nil {
			return nil, fmt.Errorf("check cycle: %w", err)
		}
		checkLife(ctx, p, r, func(c, i int, err error) { fail(p, c, i, err) })
		res.Attempted += p.requests()
		for tag, n := range tagCounts(r) {
			served[tag] += n
		}
		checks[k] = r
	}
	if res.Failed > 0 {
		res.Correct = false
		return res, fmt.Errorf("check cycle: %d of %d requests failed", res.Failed, res.Attempted)
	}
	if o.workload == controllerSim {
		sum, n := digestReplies(checks)
		fmt.Fprintf(os.Stderr, "perfbench: controller-sim seed=%d responses=%d sha256=%s\n", o.seed, n, sum)
	}
	if !o.trace {
		// Later cycles compare checksums only; the bodies would sit in
		// the live heap the timed cycles measure.
		for _, r := range checks {
			for _, reps := range r.Replies {
				for i := range reps {
					reps[i].Body = nil
				}
			}
		}
	}

	var tr *tracer
	if o.trace {
		tr = newTracer(served)
	}
	workers := runtime.GOMAXPROCS(0)
	tot := newTally()
	start := time.Now()
	var cycleRPS []string
	// Cycle 0 warms the process up after the checks and is not measured.
	cycle := 0
	for ; cycle == 0 || tot.window < time.Duration(o.seconds)*time.Second && time.Since(start) < 120*time.Second &&
		len(tot.setup)+len(lives) <= maxLives; cycle++ {
		reqs0, window0 := tot.reqs, tot.window
		for k, p := range lives {
			r, err := runLife(ctx, tmp, segments[k], p, false)
			if err != nil {
				return nil, err
			}
			res.Attempted += p.requests()
			for c := range r.Replies {
				for i, rep := range r.Replies[c] {
					want := checks[k].Replies[c][i]
					switch {
					case rep.Err != nil:
						fail(p, c, i, rep.Err)
					case rep.CRC != want.CRC || rep.Size != want.Size:
						fail(p, c, i, fmt.Errorf("reply differs from the verified check-cycle reply"))
					}
				}
			}
			if cycle == 0 {
				continue
			}
			tot.add(r)
			if tr != nil && cycle == 1 {
				if err := tr.replay(ctx, tmp, segments[k], p, checks[k], r, workers); err != nil {
					return nil, err
				}
			}
		}
		if cycle > 0 {
			cycleRPS = append(cycleRPS, fmt.Sprintf("%.0f", float64(tot.reqs-reqs0)/(tot.window-window0).Seconds()))
		}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d timed cycles=%d lives/cycle=%d served/cycle=%v req/s by cycle=%v\n",
		o.workload, o.seed, cycle-1, len(lives), served, cycleRPS)
	if n := len(tot.live); n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: live heap MiB after the first and last timed life: %.3f %.3f\n", tot.live[0], tot.live[n-1])
	}
	if tr == nil {
		res.Metrics = tot.endToEnd()
		return res, nil
	}
	res.Metrics = tr.metrics(tot.diskLive)
	if tr.mismatch > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d replayed requests reached another tier than the daemon reported\n", tr.mismatch)
	}
	spans := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.writeSpans(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	return res, nil
}

// requests is the number of requests in one life.
func (p *Plan) requests() int {
	n := 0
	for _, s := range p.Clients {
		n += len(s)
	}
	return n
}

func tagCounts(r *life) map[string]int {
	out := map[string]int{}
	for _, reps := range r.Replies {
		for _, rep := range reps {
			out[rep.Tag]++
		}
	}
	return out
}

// checkLife verifies every reply of a check-cycle life and runs the
// oracle checks on a seeded sample of them.
func checkLife(ctx context.Context, p *Plan, r *life, fail func(c, i int, err error)) {
	bad := map[[2]int]bool{}
	for c := range r.Replies {
		for i, rep := range r.Replies[c] {
			err := rep.Err
			if err == nil {
				err = checkReply(p.Clients[c][i], rep.Body)
			}
			if err != nil {
				bad[[2]int{c, i}] = true
				fail(c, i, err)
			}
		}
	}
	for _, ci := range oracleSample(p.Seed, p.Clients, r.Replies, 1) {
		if bad[ci] {
			continue
		}
		if err := runOracle(ctx, p.Clients[ci[0]][ci[1]], r.Replies[ci[0]][ci[1]].Body); err != nil {
			fail(ci[0], ci[1], err)
		}
	}
}

// maxLives caps the timed lives of a run, so their per-life figures fit
// slices allocated before the first window.
const maxLives = 8192

// tally folds the timed lives into running totals of a fixed size. No
// reply outlives its life, so the benchmark holds no more memory late
// in a run than early, and the live heap read after each life is the
// daemon's, whatever the throughput.
type tally struct {
	lat                   *histogram
	reqs                  int
	window, cpu           time.Duration
	allocs, bytes         uint64
	setup, live, diskLive []float64 // one value per life
}

func newTally() *tally {
	return &tally{lat: newHistogram(),
		setup: make([]float64, 0, maxLives), live: make([]float64, 0, maxLives), diskLive: make([]float64, 0, maxLives)}
}

func (t *tally) add(r *life) {
	t.setup = append(t.setup, r.Setup.Seconds())
	t.live = append(t.live, float64(r.LiveHeap)/(1<<20))
	t.diskLive = append(t.diskLive, float64(r.DiskLive)/(1<<20))
	t.window += r.Window
	t.cpu += r.CPU
	t.allocs += r.Allocs
	t.bytes += r.Bytes
	for _, reps := range r.Replies {
		for _, rep := range reps {
			t.lat.add(rep.Dur)
		}
		t.reqs += len(reps)
	}
}

// endToEnd is the end-to-end metrics of the timed lives.
func (t *tally) endToEnd() map[string]metric {
	n := float64(t.reqs)
	return map[string]metric{
		"setup_s":           {median(t.setup), "s"},
		"throughput_rps":    {n / t.window.Seconds(), "req/s"},
		"latency_p50_ms":    {t.lat.quantileMS(0.50), "ms"},
		"latency_p90_ms":    {t.lat.quantileMS(0.90), "ms"},
		"cpu_ms_per_req":    {ms(t.cpu) / n, "ms"},
		"allocs_per_req":    {float64(t.allocs) / n, "count"},
		"alloc_kib_per_req": {float64(t.bytes) / 1024 / n, "KiB"},
		"live_heap_mib":     {median(t.live), "MiB"},
	}
}
