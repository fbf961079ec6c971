package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// candidateKey renders every decision-relevant field of a candidate so
// two runs can be compared byte-for-byte.
func candidateKey(c Candidate) string {
	return fmt.Sprintf("%d|%dx%dMbit/%db/%dbk/%dpg/%dblk/%v|%.9g|%.9g|%.9g|%.9g|%.9g|%t",
		c.Seq, c.Macros, c.Spec.CapacityMbit, c.Spec.InterfaceBits, c.Spec.Banks,
		c.Spec.PageBits, c.Spec.BlockBits, c.Spec.Redundancy,
		c.AreaMm2, c.PowerMW, c.SustainedGBps, c.CostUSD, c.DieYield, c.Feasible)
}

// streamKeys drains ExploreContext at the given worker count and
// renders the whole stream, in the order it arrived, and the Pareto
// front folded from it.
func streamKeys(t *testing.T, workers int) (stream, front string) {
	t.Helper()
	ch, err := ExploreContext(context.Background(), req(), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	fr := NewFrontier()
	var sb strings.Builder
	for c := range ch {
		fr.Add(c)
		sb.WriteString(candidateKey(c))
		sb.WriteByte('\n')
	}
	stream = sb.String()
	sb.Reset()
	for _, c := range fr.Candidates() {
		sb.WriteString(candidateKey(c))
		sb.WriteByte('\n')
	}
	return stream, sb.String()
}

func TestExploreContextDeterministicAcrossWorkerCounts(t *testing.T) {
	serialStream, serial := streamKeys(t, 1)
	if serial == "" {
		t.Fatal("empty Pareto front from serial run")
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if w < 2 {
			continue
		}
		stream, parallel := streamKeys(t, w)
		if parallel != serial {
			t.Errorf("front with %d workers differs from serial:\nserial:\n%s\nworkers=%d:\n%s",
				w, serial, w, parallel)
		}
		if stream != serialStream {
			t.Errorf("stream with %d workers differs from serial (%d vs %d bytes)", w, len(stream), len(serialStream))
		}
	}
}

func TestExploreContextMatchesExplore(t *testing.T) {
	want, err := Explore(req())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := ExploreContext(context.Background(), req(), WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	for c := range ch {
		got[c.Seq] = candidateKey(c)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed %d candidates, Explore returned %d", len(got), len(want))
	}
	for _, c := range want {
		if got[c.Seq] != candidateKey(c) {
			t.Fatalf("candidate Seq=%d differs:\n%s\nvs\n%s", c.Seq, got[c.Seq], candidateKey(c))
		}
	}
}

// TestExploreContextMatchesSweep pins the streaming wrapper to the
// fold it wraps: draining ExploreContext yields exactly the built
// candidates SweepContext's observer sees, in the same strictly
// increasing Seq order, and folding the stream through a Frontier
// reproduces the sweep's frontier.
func TestExploreContextMatchesSweep(t *testing.T) {
	r := Requirements{CapacityMbit: 32, BandwidthGBps: 2.5, HitRate: 0.7, MaxAreaMm2: 60}
	for name, opts := range map[string][]ExploreOption{
		"full":          {WithWorkers(2)},
		"pruned-window": {WithWorkers(3), WithPruning(), WithSeqRange(500, 3000)},
	} {
		var want []Candidate
		res, err := SweepContext(context.Background(), r,
			append(opts, WithObserver(func(c Candidate) { want = append(want, c) }))...)
		if err != nil {
			t.Fatalf("%s: SweepContext: %v", name, err)
		}
		ch, err := ExploreContext(context.Background(), r, opts...)
		if err != nil {
			t.Fatalf("%s: ExploreContext: %v", name, err)
		}
		var got []Candidate
		front := NewFrontier()
		for c := range ch {
			got = append(got, c)
			front.Add(c)
		}
		if len(got) != len(want) || int64(len(got)) > res.Built {
			t.Fatalf("%s: streamed %d candidates, the fold observed %d (built %d)", name, len(got), len(want), res.Built)
		}
		for i := range want {
			if i > 0 && want[i].Seq <= want[i-1].Seq {
				t.Fatalf("%s: observer saw Seq %d after %d", name, want[i].Seq, want[i-1].Seq)
			}
			if g, w := candidateKey(got[i]), candidateKey(want[i]); g != w {
				t.Fatalf("%s: candidate %d differs:\nstream %s\nfold   %s", name, i, g, w)
			}
		}
		streamed := front.Candidates()
		if len(streamed) == 0 || len(streamed) != len(res.Frontier) {
			t.Fatalf("%s: stream front has %d members, the fold's %d", name, len(streamed), len(res.Frontier))
		}
		for i := range streamed {
			if candidateKey(streamed[i]) != candidateKey(res.Frontier[i]) {
				t.Fatalf("%s: front member %d differs:\nstream %s\nfold   %s", name, i,
					candidateKey(streamed[i]), candidateKey(res.Frontier[i]))
			}
		}
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var final ExploreStats
	seen := 0
	_, err := SweepContext(ctx, req(), WithWorkers(2),
		WithObserver(func(Candidate) {
			if seen++; seen == 3 {
				cancel()
			}
		}),
		WithProgress(func(s ExploreStats) { final = s }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if final.Done {
		t.Error("cancelled sweep reported a Done snapshot")
	}
}

// synthetic builds a feasible candidate on a synthetic trade-off curve:
// off the front when dominated is set, possibly on it otherwise.
func synthetic(seq int, dominated bool) Candidate {
	c := Candidate{
		Seq:           seq,
		AreaMm2:       1 + float64(seq%13),
		PowerMW:       100 - float64(seq%13),
		SustainedGBps: 1,
		Feasible:      true,
	}
	c.CostUSD = c.AreaMm2
	c.CostPerMbitUSD = c.AreaMm2
	if dominated {
		c.AreaMm2 += 5
		c.PowerMW += 5
		c.CostUSD += 5
		c.CostPerMbitUSD += 5
	}
	return c
}

func TestMergeMatchesSingleFrontier(t *testing.T) {
	// Build one population, compute its front in one pass, then merge
	// per-partition fronts over random boundaries and compare.
	var pop []Candidate
	for seq := 0; seq < 400; seq++ {
		pop = append(pop, synthetic(seq, seq%3 == 0))
	}
	whole := NewFrontier()
	for _, c := range pop {
		whole.Add(c)
	}
	want := whole.Candidates()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		// Random sorted distinct cut points over (0, len(pop)).
		cuts := map[int]bool{}
		for n := rng.Intn(9); len(cuts) < n; {
			cuts[1+rng.Intn(len(pop)-1)] = true
		}
		bounds := []int{0, len(pop)}
		for c := range cuts {
			bounds = append(bounds, c)
		}
		sort.Ints(bounds)
		var parts []SweepResult
		for i := 0; i+1 < len(bounds); i++ {
			local := NewFrontier()
			for _, c := range pop[bounds[i]:bounds[i+1]] {
				local.Add(c)
			}
			parts = append(parts, SweepResult{Frontier: local.Candidates()})
		}
		// Merge order must not matter either.
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		got := parts[0].Merge(parts[1:]...).Frontier
		if len(got) != len(want) {
			t.Fatalf("trial %d (%d parts): merged front has %d members, want %d", trial, len(parts), len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("trial %d: merged front member %d is seq %d, want %d", trial, i, got[i].Seq, want[i].Seq)
			}
		}
	}
}

func TestMergeSumsCounters(t *testing.T) {
	var parts []SweepResult
	for i := 0; i < 3; i++ {
		parts = append(parts, SweepResult{Enumerated: 10, Built: 8, Infeasible: int64(i)})
	}
	got := parts[0].Merge(parts[1:]...)
	want := fmt.Sprintf("%d/%d/%d", 30, 24, 3)
	if g := fmt.Sprintf("%d/%d/%d", got.Enumerated, got.Built, got.Infeasible); g != want {
		t.Fatalf("Merge counters = %s, want %s", g, want)
	}
}

func TestRecommendContextDeterministicAcrossWorkerCounts(t *testing.T) {
	// The quickstart requirements from the README.
	r := Requirements{CapacityMbit: 16, BandwidthGBps: 2.5, HitRate: 0.8, DefectsPerCm2: 0.8}
	serial, err := RecommendContext(context.Background(), r, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RecommendContext(context.Background(), r, WithWorkers(runtime.GOMAXPROCS(0)))
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d recommendations, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Role != parallel[i].Role || candidateKey(serial[i].Candidate) != candidateKey(parallel[i].Candidate) {
			t.Errorf("recommendation %d differs: %s %s vs %s %s", i,
				serial[i].Role, candidateKey(serial[i].Candidate),
				parallel[i].Role, candidateKey(parallel[i].Candidate))
		}
	}
}

func TestExploreContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := ExploreContext(ctx, req(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Consume a few candidates, then cancel; the stream must close.
	for i := 0; i < 3; i++ {
		if _, ok := <-ch; !ok {
			t.Fatal("stream closed before cancellation")
		}
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed as required
			}
		case <-deadline:
			t.Fatal("stream not closed within 5s of cancellation")
		}
	}
}

func TestExploreContextStatsAndHooks(t *testing.T) {
	var observed int64
	var final ExploreStats
	gotFinal := false
	ch, err := ExploreContext(context.Background(), req(),
		WithWorkers(3),
		WithProgressEvery(64),
		WithObserver(func(Candidate) { atomic.AddInt64(&observed, 1) }),
		WithProgress(func(s ExploreStats) {
			if s.Done {
				final = s
				gotFinal = true
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	streamed := int64(0)
	for range ch {
		streamed++
	}
	if !gotFinal {
		t.Fatal("no final progress snapshot")
	}
	if final.Built != streamed {
		t.Errorf("stats.Built = %d, streamed %d", final.Built, streamed)
	}
	if observed != streamed {
		t.Errorf("observer saw %d candidates, streamed %d", observed, streamed)
	}
	if final.Enumerated < final.Built {
		t.Errorf("enumerated %d < built %d", final.Enumerated, final.Built)
	}
	if final.Workers != 3 {
		t.Errorf("workers = %d, want 3", final.Workers)
	}
	if final.WallTime <= 0 || final.PointsPerSec() <= 0 {
		t.Errorf("degenerate wall time %v", final.WallTime)
	}
	if final.FrontSize <= 0 {
		t.Error("empty front on feasible requirements")
	}
	if final.Pruned == 0 {
		t.Error("incremental front pruned nothing over the full space")
	}
}

func TestExploreContextOptionValidation(t *testing.T) {
	if _, err := ExploreContext(context.Background(), req(), WithWorkers(0)); err == nil {
		t.Error("worker count 0 accepted")
	}
	if _, err := ExploreContext(context.Background(), req(), WithProgressEvery(0)); err == nil {
		t.Error("progress interval 0 accepted")
	}
	if _, err := ExploreContext(context.Background(), Requirements{}); err == nil {
		t.Error("invalid requirements accepted")
	}
}

func TestSweepEnumeratesCanonically(t *testing.T) {
	n := 0
	for _, p := range drainSweep(t, req()) {
		if p.Seq != n {
			t.Fatalf("point %d carries Seq %d", n, p.Seq)
		}
		n++
	}
	// 2 organizations × 6 widths × 4 banks × 3 pages × 2 blocks × 4
	// redundancy levels × 2 ECC schemes × 1 process.
	if want := 2 * 6 * 4 * 3 * 2 * 4 * 2; n != want {
		t.Fatalf("sweep enumerated %d points, want %d", n, want)
	}
}

func TestFrontierMatchesBatchPareto(t *testing.T) {
	cands, err := Explore(req())
	if err != nil {
		t.Fatal(err)
	}
	batch := Pareto(Feasible(cands))
	front := NewFrontier()
	for _, c := range cands {
		front.Add(c)
	}
	inc := front.Candidates()
	if len(inc) != len(batch) {
		t.Fatalf("incremental front has %d members, batch Pareto %d", len(inc), len(batch))
	}
	// Same membership (batch is sorted by area only; compare as sets).
	seen := map[int]bool{}
	for _, c := range inc {
		seen[c.Seq] = true
	}
	for _, c := range batch {
		if !seen[c.Seq] {
			t.Errorf("batch front member Seq=%d missing from incremental front", c.Seq)
		}
	}
	if front.Pruned() != int64(len(Feasible(cands))-len(inc)) {
		t.Errorf("pruned %d, want %d", front.Pruned(), len(Feasible(cands))-len(inc))
	}
}
