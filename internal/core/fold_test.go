package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// TestSweepAllocBudget bounds what a pruned 16-Mbit sweep at one worker
// allocates: the fold emits evaluation records and materializes only
// the returned front and closest miss, and the worker refills its
// templates in place in its slot table, so the count stays far below
// one allocation per evaluated point. A Macro per built point, a
// reason string per infeasible one or a heap template per projection
// would blow the budget: the sweep evaluates more of each than the
// budget allows in total (it builds several hundred projections).
func TestSweepAllocBudget(t *testing.T) {
	r := Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxPowerMW: 400}
	var st ExploreStats
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := SweepContext(context.Background(), r, WithWorkers(1), WithPruning(),
			WithProgress(func(s ExploreStats) { st = s })); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 150
	t.Logf("%.0f allocations per sweep evaluating %d built points, %d infeasible", allocs, st.Built, st.Infeasible)
	if st.Built < budget || st.Infeasible < budget {
		t.Fatalf("%d built, %d infeasible points evaluated; the budget cannot tell per-point allocations apart",
			st.Built, st.Infeasible)
	}
	if allocs > budget {
		t.Fatalf("%.0f allocations per sweep, budget %d", allocs, budget)
	}
}

// TestFoldNearestMatchesStream pins the fold's closest miss to the
// CloserMiss pick over the full observer stream — the same Seq and the
// same reason bytes — for the nothing-feasible request of the service
// goldens and three seeded random ones, and checks that a partitioned
// sweep merges to the same pick.
func TestFoldNearestMatchesStream(t *testing.T) {
	reqs := []Requirements{{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxPowerMW: 5}}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3; i++ {
		reqs = append(reqs, Requirements{
			CapacityMbit:  []int{8, 13, 16, 32}[rng.Intn(4)],
			BandwidthGBps: 0.5 + 4*rng.Float64(),
			HitRate:       rng.Float64(),
			MaxAreaMm2:    20 + 60*rng.Float64(),
			MaxPowerMW:    200 + 1500*rng.Float64(),
			MinClockMHz:   60 + 60*rng.Float64(),
			DefectsPerCm2: rng.Float64(),
		})
	}
	for _, r := range reqs {
		var stream []Candidate
		res, err := SweepContext(context.Background(), r, WithWorkers(2),
			WithObserver(func(c Candidate) { stream = append(stream, c) }))
		if err != nil {
			t.Fatal(err)
		}
		want := streamNearest(stream)
		if len(want.Reasons) == 0 {
			t.Fatalf("%+v: no infeasible candidate; the case shows nothing", r)
		}
		if res.Nearest.Seq != want.Seq || !reflect.DeepEqual(res.Nearest.Reasons, want.Reasons) {
			t.Fatalf("%+v: fold's closest miss Seq %d %q, stream's Seq %d %q",
				r, res.Nearest.Seq, res.Nearest.Reasons, want.Seq, want.Reasons)
		}
		total := SweepCount(r)
		var parts []SweepResult
		for _, w := range [][2]int{{0, total / 3}, {total / 3, 2 * total / 3}, {2 * total / 3, total}} {
			part, err := SweepContext(context.Background(), r, WithWorkers(2), WithSeqRange(w[0], w[1]))
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
		if merged := parts[0].Merge(parts[1:]...); !reflect.DeepEqual(merged.Nearest, res.Nearest) {
			t.Fatalf("%+v: merged closest miss Seq %d, undivided Seq %d", r, merged.Nearest.Seq, res.Nearest.Seq)
		}
	}
}
