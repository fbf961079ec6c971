// Command benchdiff turns `go test -bench -benchmem` text into a
// stable JSON snapshot and compares two snapshots under separate time
// and allocation tolerances — the repo's benchmark-trajectory harness.
//
// Snapshot mode (default) parses benchmark output from stdin or a file:
//
//	go test -bench . -benchmem ./... | benchdiff -o BENCH_5.json
//
// Compare mode gates a new snapshot against a previous one:
//
//	benchdiff -compare -time-tol 0.35 -alloc-tol 0.10 BENCH_4.json BENCH_5.json
//
// Time tolerance is the allowed fractional ns/op growth; alloc
// tolerance bounds allocs/op and B/op growth the same way. Without
// flags they are the CI gate's (-time-tol 50 -alloc-tol 2.0). Allocation
// counts are deterministic even at -benchtime=1x, so CI gates them
// tightly while leaving ns/op slack for noisy runners (see the
// bench-smoke job). A benchmark present in only one snapshot is
// reported but never fails the gate, so adding or retiring benchmarks
// does not need a snapshot flag day.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measured values. Extra holds non-standard
// per-op metrics emitted via testing.B.ReportMetric (e.g. the E8
// bench's recovery factor), keyed by unit.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is the on-disk BENCH_<n>.json schema: benchmark name (with
// the -GOMAXPROCS suffix stripped, so keys stay machine-independent)
// to result. GOMAXPROCS records the parallelism of the run the numbers
// came from — taken from the stripped suffix (1 when go test emitted
// none) — and compare mode refuses to gate two snapshots whose values
// differ: a ns/op delta between a 1-core and an 8-core run is a
// machine change, not a regression. 0 means a pre-field snapshot of
// unknown provenance; those compare with a warning.
type Snapshot struct {
	SchemaVersion int               `json:"schema_version"`
	GOMAXPROCS    int               `json:"gomaxprocs,omitempty"`
	Benchmarks    map[string]Result `json:"benchmarks"`
}

// The compare mode's default tolerances are the CI gate's (the
// Makefile's BENCH_TIME_TOL and BENCH_ALLOC_TOL), so a compare without
// flags judges a pair of snapshots as CI does.
const defaultTimeTol, defaultAllocTol = 50, 2.0

func main() {
	var (
		compare  = flag.Bool("compare", false, "compare two snapshot files (old new) instead of parsing bench output")
		out      = flag.String("o", "", "snapshot mode: write JSON here (default stdout)")
		timeTol  = flag.Float64("time-tol", defaultTimeTol, "compare mode: allowed fractional ns/op growth")
		allocTol = flag.Float64("alloc-tol", defaultAllocTol, "compare mode: allowed fractional allocs/op and B/op growth")
	)
	flag.Parse()

	var err error
	if *compare {
		err = runCompare(flag.Args(), *timeTol, *allocTol)
	} else {
		err = runSnapshot(flag.Args(), *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func runSnapshot(args []string, out string) error {
	var in io.Reader = os.Stdin
	switch len(args) {
	case 0:
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	default:
		return fmt.Errorf("snapshot mode takes at most one input file, got %d args", len(args))
	}
	snap, err := Parse(in)
	if err != nil {
		return err
	}
	if len(snap.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// Parse reads `go test -bench` output into a snapshot. Lines that are
// not benchmark results (headers, PASS/ok, failures) are skipped.
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{SchemaVersion: 1, Benchmarks: map[string]Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := stripProcSuffix(fields[0])
		if name != fields[0] {
			if p, err := strconv.Atoi(fields[0][len(name)+1:]); err == nil {
				snap.GOMAXPROCS = p
			}
		} else if snap.GOMAXPROCS == 0 {
			// go test omits the suffix entirely when GOMAXPROCS is 1.
			snap.GOMAXPROCS = 1
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo---FAIL"
		}
		res := Result{Iterations: iters}
		// The remainder is value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = v
			}
		}
		snap.Benchmarks[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// stripProcSuffix removes the trailing "-<GOMAXPROCS>" go test appends
// to benchmark names, keeping snapshot keys machine-independent.
// Sub-benchmark names containing digits (workers=4) are unaffected:
// only a pure-digit run after the final '-' is stripped.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func loadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if snap.Benchmarks == nil {
		return nil, fmt.Errorf("%s: no benchmarks key", path)
	}
	return &snap, nil
}

// regression describes one gated metric exceeding its tolerance.
type regression struct {
	name, metric    string
	oldV, newV, tol float64
}

func runCompare(args []string, timeTol, allocTol float64) error {
	if len(args) != 2 {
		return fmt.Errorf("compare mode needs exactly two snapshots: old new")
	}
	oldSnap, err := loadSnapshot(args[0])
	if err != nil {
		return err
	}
	newSnap, err := loadSnapshot(args[1])
	if err != nil {
		return err
	}
	if err := checkComparable(oldSnap, newSnap); err != nil {
		return err
	}
	regs := Compare(oldSnap, newSnap, timeTol, allocTol)

	names := make([]string, 0, len(newSnap.Benchmarks))
	for name := range newSnap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-52s %14s %14s %10s\n", "benchmark", "old ns/op", "new ns/op", "Δallocs")
	for _, name := range names {
		nw := newSnap.Benchmarks[name]
		ov, ok := oldSnap.Benchmarks[name]
		if !ok {
			fmt.Fprintf(w, "%-52s %14s %14.0f %10s\n", name, "(new)", nw.NsPerOp, "-")
			continue
		}
		fmt.Fprintf(w, "%-52s %14.0f %14.0f %+10.0f\n", name, ov.NsPerOp, nw.NsPerOp, nw.AllocsPerOp-ov.AllocsPerOp)
	}
	for name := range oldSnap.Benchmarks {
		if _, ok := newSnap.Benchmarks[name]; !ok {
			fmt.Fprintf(w, "%-52s %14s\n", name, "(retired)")
		}
	}
	w.Flush()

	if len(regs) == 0 {
		fmt.Printf("benchdiff: OK — no regressions beyond tolerances (time %+.0f%%, alloc %+.0f%%)\n",
			timeTol*100, allocTol*100)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "benchdiff: REGRESSION %s %s: %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)\n",
			r.name, r.metric, r.oldV, r.newV, (r.newV/r.oldV-1)*100, r.tol*100)
	}
	return fmt.Errorf("%d regression(s)", len(regs))
}

// checkComparable refuses a compare across runs of different
// parallelism: those ns/op deltas measure the machine, not the code.
// A snapshot predating the gomaxprocs field (0) compares with a
// warning — the provenance is unknown, not known-mismatched.
func checkComparable(oldSnap, newSnap *Snapshot) error {
	switch {
	case oldSnap.GOMAXPROCS == 0 || newSnap.GOMAXPROCS == 0:
		fmt.Fprintln(os.Stderr, "benchdiff: warning: snapshot without gomaxprocs provenance — cross-host drift not checked")
	case oldSnap.GOMAXPROCS != newSnap.GOMAXPROCS:
		return fmt.Errorf("refusing to compare snapshots from different hosts: old GOMAXPROCS %d, new %d (re-run the baseline on this machine)",
			oldSnap.GOMAXPROCS, newSnap.GOMAXPROCS)
	}
	return nil
}

// Compare gates new against old: ns/op under timeTol, allocs/op and
// B/op under allocTol. Benchmarks missing on either side never fail.
func Compare(oldSnap, newSnap *Snapshot, timeTol, allocTol float64) []regression {
	var regs []regression
	names := make([]string, 0, len(newSnap.Benchmarks))
	for name := range newSnap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ov, ok := oldSnap.Benchmarks[name]
		if !ok {
			continue
		}
		nw := newSnap.Benchmarks[name]
		check := func(metric string, oldV, newV, tol float64) {
			if oldV > 0 && newV > oldV*(1+tol) {
				regs = append(regs, regression{name, metric, oldV, newV, tol})
			}
		}
		check("ns/op", ov.NsPerOp, nw.NsPerOp, timeTol)
		check("allocs/op", ov.AllocsPerOp, nw.AllocsPerOp, allocTol)
		check("B/op", ov.BytesPerOp, nw.BytesPerOp, allocTol)
	}
	return regs
}
