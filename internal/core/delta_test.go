package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"edram/internal/tech"
)

// recordedState runs one cold pruned explore of req and builds a sealed
// DeltaState from its built candidates, as the service does.
func recordedState(t *testing.T, req Requirements) *DeltaState {
	t.Helper()
	s, err := NewDeltaState(req)
	if err != nil {
		t.Fatalf("NewDeltaState: %v", err)
	}
	if _, err := SweepContext(context.Background(), req, WithPruning(), WithObserver(s.Observe)); err != nil {
		t.Fatalf("SweepContext: %v", err)
	}
	s.Seal()
	return s
}

// assertDeltaParity pins DeltaExplore(newReq) against a cold pruned
// full sweep of newReq: the delta's fold equals the cold fold —
// identical counters and frontier candidates (deep equal, canonical
// order).
func assertDeltaParity(t *testing.T, s *DeltaState, newReq Requirements) {
	t.Helper()
	res, err := DeltaExplore(context.Background(), s, newReq, 2)
	if err != nil {
		t.Fatalf("DeltaExplore: %v", err)
	}
	var final ExploreStats
	cold, err := SweepContext(context.Background(), newReq, WithPruning(),
		WithProgress(func(s ExploreStats) { final = s }))
	if err != nil {
		t.Fatalf("SweepContext: %v", err)
	}
	got := res.SweepResult
	if got.Enumerated != cold.Enumerated || got.Built != cold.Built || got.Infeasible != cold.Infeasible {
		t.Fatalf("counters differ (req %+v):\ndelta %d/%d/%d\ncold  %d/%d/%d", newReq,
			got.Enumerated, got.Built, got.Infeasible, cold.Enumerated, cold.Built, cold.Infeasible)
	}
	if len(got.Frontier) != len(cold.Frontier) {
		t.Fatalf("frontier size %d != cold %d (req %+v)", len(got.Frontier), len(cold.Frontier), newReq)
	}
	for i := range cold.Frontier {
		if !reflect.DeepEqual(got.Frontier[i], cold.Frontier[i]) {
			t.Fatalf("frontier[%d] differs (req %+v):\ndelta %+v\ncold  %+v",
				i, newReq, got.Frontier[i], cold.Frontier[i])
		}
	}
	if !reflect.DeepEqual(got.Nearest, cold.Nearest) {
		t.Fatalf("closest miss differs (req %+v):\ndelta Seq %d %q\ncold  Seq %d %q",
			newReq, got.Nearest.Seq, got.Nearest.Reasons, cold.Nearest.Seq, cold.Nearest.Reasons)
	}
	if res.Swept+res.Reused < final.Built {
		t.Fatalf("swept %d + reused %d cannot cover the %d built points a cold sweep evaluates",
			res.Swept, res.Reused, final.Built)
	}
}

func TestDeltaExploreTightenLoosen(t *testing.T) {
	base := Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 60}
	s := recordedState(t, base)
	for _, newReq := range []Requirements{
		// Tighten area: pure re-filter, nothing swept.
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 25},
		// Loosen area fully: exposes intervals the first run pruned.
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5},
		// Tighten bandwidth and add clock floor together.
		{CapacityMbit: 16, BandwidthGBps: 2.5, HitRate: 0.5, MinClockMHz: 90},
		// Empty the feasible set entirely.
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 0.001},
		// Un-empty it again (state must have survived the empty round).
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 40, MaxPowerMW: 1200},
	} {
		assertDeltaParity(t, s, newReq)
	}
}

func TestDeltaExploreRejectsStructuralChange(t *testing.T) {
	s := recordedState(t, Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5})
	for name, bad := range map[string]Requirements{
		"capacity": {CapacityMbit: 32, BandwidthGBps: 1, HitRate: 0.5},
		"hit-rate": {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.6},
		"defects":  {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, DefectsPerCm2: 0.9},
		"procs": {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5,
			Processes: tech.Processes()},
	} {
		if s.Eligible(bad) {
			t.Fatalf("%s change reported delta-eligible", name)
		}
		if _, err := DeltaExplore(context.Background(), s, bad, 1); err == nil {
			t.Fatalf("%s change: DeltaExplore accepted a structural delta", name)
		}
	}
}

// TestDeltaExploreRandomDeltas is the property test: seeded random
// constraint deltas (tighten, loosen, drop, mixed — including rounds
// that empty or un-empty the feasible set) applied as a sequence
// against one evolving state, each asserted byte-equal to a cold sweep.
func TestDeltaExploreRandomDeltas(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-round full-sweep property test")
	}
	rng := rand.New(rand.NewSource(0x6ed4a3))
	base := Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5,
		MaxAreaMm2: 50, MinClockMHz: 80}
	s := recordedState(t, base)
	pick := func(vals []float64) float64 { return vals[rng.Intn(len(vals))] }
	for round := 0; round < 12; round++ {
		newReq := base
		// Each constraint independently keeps, tightens, loosens, or
		// drops (where zero means unconstrained); the value pools span
		// satisfiable through unsatisfiable extremes.
		newReq.BandwidthGBps = pick([]float64{0.5, 1, 2, 3.5, 6})
		newReq.MaxAreaMm2 = pick([]float64{0, 0.001, 20, 50, 120})
		newReq.MaxPowerMW = pick([]float64{0, 300, 900, 2500})
		newReq.MinClockMHz = pick([]float64{0, 70, 95, 500})
		assertDeltaParity(t, s, newReq)
	}
}
