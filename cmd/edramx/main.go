// Command edramx is the embedded-DRAM design-space explorer: given the
// application's capacity, sustained-bandwidth and constraint
// requirements, it enumerates the paper §3 design space (interface
// width, banks, page length, building block, redundancy) on a parallel
// worker pool, prints the feasible Pareto frontier and the quantized
// recommendations, and emits the datasheet of the chosen configuration.
// Exploration progress is reported on stderr.
//
// Usage:
//
//	edramx -capacity 16 -bandwidth 2.5 -hitrate 0.8 [-workers 8] [-maxarea 20] [-maxpower 800] [-role min-area]
//	edramx -capacity 16 -bandwidth 1.0 -hitrate 0.5 -delta maxarea=25 [-json]
//	edramx -scenario examples/scenarios/mpeg2-pal-decoder.json [-json]
//	edramx -scenario-validate examples/scenarios
//
// -scenario evaluates a declarative scenario file (see
// internal/scenario and the examples/scenarios corpus) through the
// same loader and builders as edramd's POST /v1/scenario — with -json
// the output is byte-identical to the endpoint's response.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"edram/internal/core"
	"edram/internal/profiling"
	"edram/internal/report"
	"edram/internal/scenario"
	"edram/internal/service"
)

func main() {
	capacity := flag.Int("capacity", 16, "required capacity in Mbit")
	bandwidth := flag.Float64("bandwidth", 2.0, "required sustained bandwidth in GB/s")
	hitrate := flag.Float64("hitrate", 0.8, "expected page-hit rate of the workload")
	maxArea := flag.Float64("maxarea", 0, "macro area cap in mm² (0 = none)")
	maxPower := flag.Float64("maxpower", 0, "macro busy-power cap in mW (0 = none)")
	defects := flag.Float64("defects", 0.8, "defect density in defects/cm²")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "evaluation worker-pool size")
	quiet := flag.Bool("quiet", false, "suppress the progress line on stderr")
	role := flag.String("role", "", "print the datasheet of one recommendation (min-area, min-power, max-bandwidth, min-cost)")
	pareto := flag.Bool("pareto", false, "also print the full feasible Pareto frontier")
	delta := flag.String("delta", "", "incremental re-exploration: sweep the flag-built requirements once, then re-explore with one constraint changed (field=value; field is bandwidth, maxarea, maxpower or minclock) and emit the delta run's JSON on stdout")
	jsonOut := flag.Bool("json", false, "emit the exploration as JSON on stdout (the exact POST /v1/explore schema)")
	scenFile := flag.String("scenario", "", "evaluate a declarative scenario file instead of flag-built requirements (with -json: the exact POST /v1/scenario schema)")
	scenDir := flag.String("scenario-validate", "", "load and compile every *.json scenario in this directory, then exit (corpus check)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the exploration to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	req := core.Requirements{
		CapacityMbit:  *capacity,
		BandwidthGBps: *bandwidth,
		HitRate:       *hitrate,
		MaxAreaMm2:    *maxArea,
		MaxPowerMW:    *maxPower,
		DefectsPerCm2: *defects,
	}
	// The flag-built requirements are checked before any profile
	// starts, so a usage error leaves no profile file behind; same
	// validation (and the same messages) as the service layer.
	if *scenDir == "" && *scenFile == "" {
		if err := req.Validate(); err != nil {
			fail(err)
		}
	}

	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	stopProfile = stop
	defer func() {
		if err := endProfile(); err != nil {
			fail(err)
		}
	}()

	if *scenDir != "" {
		validateCorpus(*scenDir)
		return
	}
	if *scenFile != "" {
		runScenario(*scenFile, *jsonOut, *workers)
		return
	}

	if *delta != "" {
		runDelta(req, *delta, *workers, *quiet)
		return
	}

	if *jsonOut {
		// The JSON path is the service's explore builder verbatim, so a
		// scripted `edramx -json` and a curl of POST /v1/explore are
		// byte-identical (the parity tests pin this down).
		var progress func(core.ExploreStats)
		if !*quiet {
			progress = progressLine
		}
		resp, err := service.BuildExplore(context.Background(), req, *workers, progress)
		if err != nil {
			fail(err)
		}
		b, err := service.Encode(resp)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}

	// One unpruned sweep feeds the Pareto front, the closest miss and
	// the progress line at once, so the closest miss is the full
	// stream's; the recommendations and both error texts come from the
	// fold, as in core.RecommendContext.
	opts := []core.ExploreOption{core.WithWorkers(*workers), core.WithProgressEvery(128)}
	if !*quiet {
		opts = append(opts, core.WithProgress(progressLine))
	}
	res, err := core.SweepContext(context.Background(), req, opts...)
	if err != nil {
		fail(err)
	}
	recs, err := res.Recommendations(req)
	if err != nil {
		fail(err)
	}
	frontier := res.Frontier

	t := report.New(fmt.Sprintf("recommendations for %d Mbit @ %.1f GB/s sustained", *capacity, *bandwidth),
		"role", "macros", "iface", "banks", "page", "block Kbit", "redundancy",
		"area mm2", "power mW", "sustained GB/s", "die $")
	for _, r := range recs {
		t.AddRow(r.Role, r.Macros, r.Spec.InterfaceBits, r.Macro.Geometry.Banks,
			r.Macro.Geometry.PageBits, r.Spec.BlockBits/1024, r.Spec.Redundancy.String(),
			r.AreaMm2, r.PowerMW, r.SustainedGBps, r.CostUSD)
	}
	if err := t.Render(os.Stdout); err != nil {
		fail(err)
	}

	if *pareto {
		fmt.Println()
		pt := report.New(fmt.Sprintf("feasible Pareto frontier (%d points)", len(frontier)),
			"macros", "iface", "banks", "page", "block Kbit", "redundancy",
			"area mm2", "power mW", "sustained GB/s", "die $")
		for _, c := range frontier {
			pt.AddRow(c.Macros, c.Spec.InterfaceBits, c.Spec.Banks, c.Spec.PageBits,
				c.Spec.BlockBits/1024, c.Spec.Redundancy.String(),
				c.AreaMm2, c.PowerMW, c.SustainedGBps, c.CostUSD)
		}
		if err := pt.Render(os.Stdout); err != nil {
			fail(err)
		}
	}

	if *role != "" {
		for _, r := range recs {
			if r.Role == *role {
				fmt.Println()
				fmt.Print(r.Macro.Datasheet())
				return
			}
		}
		fail(fmt.Errorf("no recommendation with role %q", *role))
	}
}

// runDelta is the CLI form of edramd's delta cache tier: one cold
// recorded sweep of the flag-built requirements, then an incremental
// re-exploration with a single constraint changed. Stdout carries the
// delta run's response JSON — byte-identical to a cold `edramx -json`
// of the tweaked requirements (the core parity tests pin this) —
// and stderr reports how much of the retained sweep was reused.
func runDelta(base core.Requirements, spec string, workers int, quiet bool) {
	newReq, err := applyDelta(base, spec)
	if err != nil {
		fail(err)
	}
	st, err := core.NewDeltaState(base)
	if err != nil {
		fail(err)
	}
	opts := []core.ExploreOption{core.WithWorkers(workers)}
	if !quiet {
		opts = append(opts, core.WithProgress(progressLine))
	}
	if _, err := st.Record(context.Background(), opts...); err != nil {
		fail(err)
	}
	resp, res, err := service.BuildExploreDelta(context.Background(), st, newReq, workers)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "delta: %d retained evals, %d points swept fresh, %d reused\n",
		st.Evals(), res.Swept, res.Reused)
	b, err := service.Encode(resp)
	if err != nil {
		fail(err)
	}
	os.Stdout.Write(b)
}

// applyDelta parses a field=value constraint tweak. Only the four pure
// constraint fields are legal — anything structural (capacity, hit
// rate, defects) changes the sweep itself and has no delta form.
func applyDelta(req core.Requirements, spec string) (core.Requirements, error) {
	field, val, ok := strings.Cut(spec, "=")
	if !ok {
		return req, fmt.Errorf("-delta wants field=value, got %q", spec)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return req, fmt.Errorf("-delta value %q: %v", val, err)
	}
	switch field {
	case "bandwidth":
		req.BandwidthGBps = f
	case "maxarea":
		req.MaxAreaMm2 = f
	case "maxpower":
		req.MaxPowerMW = f
	case "minclock":
		req.MinClockMHz = f
	default:
		return req, fmt.Errorf("-delta field %q (want bandwidth, maxarea, maxpower or minclock)", field)
	}
	return req, req.Validate()
}

// runScenario evaluates one declarative scenario file. The loader (and
// so the error vocabulary) is exactly the service's: an invalid file
// fails here with the same aggregate message a POST /v1/scenario 400
// carries, and -json output is byte-identical to the endpoint's
// response.
func runScenario(path string, jsonOut bool, workers int) {
	scn, err := scenario.Load(path)
	if err != nil {
		fail(err)
	}
	resp, err := service.BuildScenario(context.Background(), scn, workers)
	if err != nil {
		fail(err)
	}
	if jsonOut {
		b, err := service.Encode(resp)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}
	fmt.Printf("scenario %s (%d levels)\n", resp.Name, len(resp.Levels))
	for _, l := range resp.Levels {
		fmt.Println()
		switch l.Kind {
		case "edram":
			fmt.Printf("level %s: eDRAM %d Mbit, %d-bit interface @ %.0f MHz — %.2f mm², %.1f GB/s peak\n",
				l.Name, l.Spec.CapacityMbit, l.Spec.InterfaceBits, l.ClockMHz, l.AreaMm2, l.PeakGBps)
			fmt.Printf("  sweep: %d points, %d built, %d infeasible\n", l.Points, l.Built, l.Infeasible)
			if len(l.Picks) == 0 {
				fmt.Println("  no feasible configuration under the scenario's constraints")
			} else {
				t := report.New(fmt.Sprintf("recommendations for %s (%d Mbit @ %s GB/s sustained)",
					l.Name, l.Requirements.CapacityMbit, strconv.FormatFloat(l.Requirements.BandwidthGBps, 'g', -1, 64)),
					"role", "macros", "iface", "banks", "page", "block Kbit", "redundancy",
					"area mm2", "power mW", "sustained GB/s", "die $")
				for _, r := range l.Picks {
					t.AddRow(r.Role, r.Macros, r.Spec.InterfaceBits, r.Spec.Banks,
						r.Spec.PageBits, r.Spec.BlockBits/1024, r.Spec.Redundancy.String(),
						r.AreaMm2, r.PowerMW, r.SustainedGBps, r.CostUSD)
				}
				if err := t.Render(os.Stdout); err != nil {
					fail(err)
				}
			}
			if sim := l.Simulation; sim != nil {
				fmt.Printf("  simulation (%s): %.2f of %.2f GB/s sustained (%.0f%%), hit rate %.2f\n",
					sim.Policy, sim.SustainedGBps, sim.PeakGBps, 100*sim.SustainedFraction, sim.HitRate)
				for _, c := range sim.Clients {
					fmt.Printf("    client %-12s %.2f GB/s, mean %.0f ns, p99 %.0f ns, fifo %d\n",
						c.Name, c.AchievedGBps, c.MeanNs, c.P99Ns, c.MaxFIFODepth)
				}
			}
		case "sram":
			fmt.Printf("level %s: SRAM — %.3f mm², %.2f ns access, %.2f mW standby\n",
				l.Name, l.SRAMAreaMm2, l.SRAMAccessNs, l.SRAMStandbyMW)
		}
	}
}

// validateCorpus loads and compiles every *.json scenario under dir —
// the `make scenarios` corpus gate. All failures are reported, not
// just the first.
func validateCorpus(dir string) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		fail(err)
	}
	if len(files) == 0 {
		fail(fmt.Errorf("no *.json scenarios under %s", dir))
	}
	sort.Strings(files)
	failures := 0
	for _, f := range files {
		scn, err := scenario.Load(f)
		if err == nil {
			_, err = scn.Compile()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "edramx: %s: %v\n", f, err)
			failures++
			continue
		}
		fmt.Printf("ok %s (%s)\n", f, scn.Name)
	}
	if failures > 0 {
		fail(fmt.Errorf("%d of %d scenarios invalid", failures, len(files)))
	}
	fmt.Printf("%d scenarios valid\n", len(files))
}

// progressLine is the stderr progress reporter shared by the table and
// JSON paths.
func progressLine(s core.ExploreStats) {
	fmt.Fprintf(os.Stderr, "\rexplore: %d points (%d built, %d infeasible, %d pruned", s.Enumerated, s.Built, s.Infeasible, s.Pruned)
	if s.Skipped > 0 {
		fmt.Fprintf(os.Stderr, ", %d skipped", s.Skipped)
	}
	fmt.Fprintf(os.Stderr, ") front=%d %.0f pts/s", s.FrontSize, s.PointsPerSec())
	if s.Done {
		fmt.Fprintf(os.Stderr, " [%d workers, %.1f ms]\n", s.Workers, float64(s.WallTime.Microseconds())/1e3)
	}
}

// stopProfile ends the -cpuprofile/-memprofile profiles; nil until
// they start, and again once they are stopped.
var stopProfile func() error

// endProfile stops the profiles once. fail calls it because os.Exit
// skips main's deferred stop, which would leave a truncated CPU
// profile and no heap profile behind.
func endProfile() error {
	stop := stopProfile
	stopProfile = nil
	if stop == nil {
		return nil
	}
	return stop()
}

func fail(err error) {
	if perr := endProfile(); perr != nil {
		fmt.Fprintln(os.Stderr, "edramx:", perr)
	}
	fmt.Fprintln(os.Stderr, "edramx:", err)
	os.Exit(1)
}
