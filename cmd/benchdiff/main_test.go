package main

import (
	"strings"
	"testing"
)

const sampleBench = `
goos: linux
goarch: amd64
pkg: edram/internal/core
BenchmarkDesignSpaceExplore-4   	      55	   3775451 ns/op	 3546800 B/op	    7557 allocs/op
BenchmarkExploreParallel/workers=1-4 	      80	   3263402 ns/op	    659439 points/sec	 1867885 B/op	    7538 allocs/op
BenchmarkE8Sustained-4          	      42	   5868651 ns/op	         1.608 recovery	 5408233 B/op	   40535 allocs/op
BenchmarkDeviceAccess           	 4020980	        60.49 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	edram/internal/core	5.1s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(snap.Benchmarks))
	}
	if snap.GOMAXPROCS != 4 {
		t.Fatalf("GOMAXPROCS not recorded from the -4 suffix: %d", snap.GOMAXPROCS)
	}
	explore, ok := snap.Benchmarks["BenchmarkDesignSpaceExplore"]
	if !ok {
		t.Fatal("GOMAXPROCS suffix not stripped from BenchmarkDesignSpaceExplore-4")
	}
	if explore.NsPerOp != 3775451 || explore.AllocsPerOp != 7557 || explore.BytesPerOp != 3546800 { //nolint:edramvet/floateq // exact parse of literal input
		t.Fatalf("wrong values: %+v", explore)
	}
	par, ok := snap.Benchmarks["BenchmarkExploreParallel/workers=1"]
	if !ok {
		t.Fatal("sub-benchmark name mangled; want suffix stripped but workers=1 kept")
	}
	if par.Extra["points/sec"] != 659439 { //nolint:edramvet/floateq // exact parse of literal input
		t.Fatalf("custom metric lost: %+v", par)
	}
	if snap.Benchmarks["BenchmarkE8Sustained"].Extra["recovery"] != 1.608 { //nolint:edramvet/floateq // exact parse of literal input
		t.Fatal("ReportMetric value lost")
	}
	if dev := snap.Benchmarks["BenchmarkDeviceAccess"]; dev.NsPerOp != 60.49 || dev.AllocsPerOp != 0 { //nolint:edramvet/floateq // exact parse of literal input
		t.Fatalf("unsuffixed benchmark mis-parsed: %+v", dev)
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-4":                     "BenchmarkFoo",
		"BenchmarkFoo-16":                    "BenchmarkFoo",
		"BenchmarkFoo":                       "BenchmarkFoo",
		"BenchmarkExploreParallel/workers=4": "BenchmarkExploreParallel/workers=4",
		"BenchmarkFoo-":                      "BenchmarkFoo-",
		"BenchmarkFoo-bar":                   "BenchmarkFoo-bar",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareTolerances(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkA":    {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096},
		"BenchmarkGone": {NsPerOp: 50},
	}}
	within := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkA":   {NsPerOp: 1200, AllocsPerOp: 100, BytesPerOp: 4096},
		"BenchmarkNew": {NsPerOp: 9999, AllocsPerOp: 1e6},
	}}
	if regs := Compare(old, within, 0.30, 0.0); len(regs) != 0 {
		t.Fatalf("within-tolerance compare flagged %v", regs)
	}
	slow := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1400, AllocsPerOp: 100, BytesPerOp: 4096},
	}}
	if regs := Compare(old, slow, 0.30, 0.0); len(regs) != 1 || regs[0].metric != "ns/op" {
		t.Fatalf("ns/op regression not flagged: %v", regs)
	}
	leaky := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkA": {NsPerOp: 1000, AllocsPerOp: 101, BytesPerOp: 4096},
	}}
	if regs := Compare(old, leaky, 0.30, 0.0); len(regs) != 1 || regs[0].metric != "allocs/op" {
		t.Fatalf("allocs/op regression not flagged at zero tolerance: %v", regs)
	}
	if regs := Compare(old, leaky, 0.30, 0.05); len(regs) != 0 {
		t.Fatalf("alloc tolerance not applied: %v", regs)
	}
}

// TestDefaultTolerancesMatchGate: without flags, compare mode judges as
// the CI gate does: a +0.0% allocation drift in code a change never runs
// passes, and a 4x allocation blow-up still fails.
func TestDefaultTolerancesMatchGate(t *testing.T) {
	old := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkE14QualityGrades": {NsPerOp: 1e7, AllocsPerOp: 93089, BytesPerOp: 4e6},
	}}
	drift := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkE14QualityGrades": {NsPerOp: 1.1e7, AllocsPerOp: 93093, BytesPerOp: 4e6},
	}}
	if regs := Compare(old, drift, defaultTimeTol, defaultAllocTol); len(regs) != 0 {
		t.Fatalf("a +0.0%% drift failed the default tolerances: %v", regs)
	}
	blowUp := &Snapshot{Benchmarks: map[string]Result{
		"BenchmarkE14QualityGrades": {NsPerOp: 1e7, AllocsPerOp: 4 * 93089, BytesPerOp: 4e6},
	}}
	if regs := Compare(old, blowUp, defaultTimeTol, defaultAllocTol); len(regs) != 1 || regs[0].metric != "allocs/op" {
		t.Fatalf("a 4x allocation blow-up under the default tolerances: %v, want one allocs/op regression", regs)
	}
}

// TestCheckComparable: same-parallelism snapshots compare, unknown
// provenance warns through, cross-host pairs are refused.
func TestCheckComparable(t *testing.T) {
	if err := checkComparable(&Snapshot{GOMAXPROCS: 4}, &Snapshot{GOMAXPROCS: 4}); err != nil {
		t.Errorf("same-host compare refused: %v", err)
	}
	if err := checkComparable(&Snapshot{}, &Snapshot{GOMAXPROCS: 4}); err != nil {
		t.Errorf("unknown-provenance compare refused: %v", err)
	}
	if err := checkComparable(&Snapshot{GOMAXPROCS: 1}, &Snapshot{GOMAXPROCS: 8}); err == nil {
		t.Error("cross-host compare accepted")
	}
	// An unsuffixed single-core run parses to GOMAXPROCS 1, so it must
	// refuse against a multi-core baseline.
	snap, err := Parse(strings.NewReader("BenchmarkSolo \t 10 \t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GOMAXPROCS != 1 {
		t.Fatalf("unsuffixed run GOMAXPROCS = %d, want 1", snap.GOMAXPROCS)
	}
	if err := checkComparable(&Snapshot{GOMAXPROCS: 8}, snap); err == nil {
		t.Error("1-core vs 8-core compare accepted")
	}
}
