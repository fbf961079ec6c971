package core

import (
	"context"
	"fmt"
	"runtime"
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

func frontKeys(t *testing.T, workers int) string {
	t.Helper()
	ch, err := ExploreContext(context.Background(), req(), WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	front := NewFrontier()
	for c := range ch {
		front.Add(c)
	}
	var sb strings.Builder
	for _, c := range front.Candidates() {
		sb.WriteString(candidateKey(c))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExploreContextDeterministicAcrossWorkerCounts(t *testing.T) {
	serial := frontKeys(t, 1)
	if serial == "" {
		t.Fatal("empty Pareto front from serial run")
	}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if w < 2 {
			continue
		}
		if parallel := frontKeys(t, w); parallel != serial {
			t.Errorf("front with %d workers differs from serial:\nserial:\n%s\nworkers=%d:\n%s",
				w, serial, w, parallel)
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
	if final.Workers != 3 || len(final.WorkerBusy) != 3 {
		t.Errorf("workers = %d, busy slots = %d, want 3", final.Workers, len(final.WorkerBusy))
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
	if u := final.Utilization(); len(u) != 3 {
		t.Errorf("utilization slots = %d, want 3", len(u))
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
