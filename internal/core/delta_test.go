package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
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

// TestDeltaRecordsRoundTrip pins the premise of the state's dense
// store: area, cost, sustained bandwidth and clock are stored once per
// projection, so every page variant of a projection must have
// evaluated them to the same bits. For seeded requests over one to
// three processes, with and without caps, every built candidate of the
// recorded sweep must come back bit for bit from the store, and the
// store must hold nothing else inside the coverage.
func TestDeltaRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	all := tech.Processes()
	for i := 0; i < 6; i++ {
		r := Requirements{
			CapacityMbit:  []int{8, 13, 16, 32}[rng.Intn(4)],
			BandwidthGBps: 0.5 + 3*rng.Float64(),
			HitRate:       rng.Float64(),
			DefectsPerCm2: rng.Float64(),
		}
		for _, p := range rng.Perm(len(all))[:1+i%3] {
			r.Processes = append(r.Processes, all[p])
		}
		if i%2 == 1 {
			r.MaxAreaMm2 = 20 + 60*rng.Float64()
			r.MaxPowerMW = 200 + 1500*rng.Float64()
			r.MinClockMHz = 60 + 60*rng.Float64()
		}
		s, err := NewDeltaState(r)
		if err != nil {
			t.Fatal(err)
		}
		var built []Candidate
		if _, err := s.Record(context.Background(), WithWorkers(2),
			WithObserver(func(c Candidate) { built = append(built, c) })); err != nil {
			t.Fatal(err)
		}
		projs := map[int]bool{}
		for _, c := range built {
			projs[s.space.proj(c.Seq)] = true
			if !s.records.has(c.Seq) {
				t.Fatalf("%+v: built Seq %d has no stored record", r, c.Seq)
			}
			got := s.records.at(c.Seq)
			want := pointEval{c.Seq, c.AreaMm2, c.PowerMW, c.CostUSD, c.SustainedGBps, c.Macro.ClockMHz}
			if !sameBits(got, want) {
				t.Fatalf("%+v: Seq %d stored as %+v, evaluated as %+v", r, c.Seq, got, want)
			}
		}
		if s.Evals() != len(built) {
			t.Fatalf("%+v: %d records inside the coverage, %d built candidates", r, s.Evals(), len(built))
		}
		if len(projs) >= len(built) {
			t.Fatalf("%+v: %d built points over %d projections; no two page variants share a record", r, len(built), len(projs))
		}
	}
}

// sameBits reports whether two records hold the same Seq and the same
// bits in every float.
func sameBits(a, b pointEval) bool {
	bits := func(ev pointEval) [6]uint64 {
		return [6]uint64{uint64(ev.seq), math.Float64bits(ev.area), math.Float64bits(ev.power),
			math.Float64bits(ev.cost), math.Float64bits(ev.sustained), math.Float64bits(ev.clock)}
	}
	return bits(a) == bits(b)
}

// cancelAfter is a context that cancels itself on the n-th call of
// Err. A sweep's collector calls Err once per batch it receives, and
// its workers poll Done only, so the cancellation lands inside a sweep
// after n-1 folded batches.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	n      atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestDeltaGapSweepCancelled cancels a loosening DeltaExplore inside
// its gap sweep, after the sweep has written records into the store,
// and checks that the state's answers did not move: the same coverage
// and Evals, and the uncancelled re-run returns what a state that was
// never cancelled returns, which is the cold fold.
func TestDeltaGapSweepCancelled(t *testing.T) {
	base := Requirements{CapacityMbit: 16, BandwidthGBps: 3, HitRate: 0.5, MaxAreaMm2: 40}
	loose := base
	loose.BandwidthGBps = 1
	s, ref := recordedState(t, base), recordedState(t, base)
	coverage, evals := append([]seqRange(nil), s.coverage...), s.Evals()
	exposed := subtractRanges(newPrunePlan(loose, s.space).enumerated(0, s.space.total), s.coverage)
	if len(exposed) == 0 || s.records.count(exposed) != 0 {
		t.Fatalf("loosening exposes %v holding %d records; want a non-empty gap with none", exposed, s.records.count(exposed))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cctx := &cancelAfter{Context: ctx, cancel: cancel}
	cctx.n.Store(3)
	if _, err := DeltaExplore(cctx, s, loose, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("DeltaExplore under a cancel inside its gap sweep: %v, want context.Canceled", err)
	}
	if s.records.count(exposed) == 0 {
		t.Fatal("the cancelled gap sweep wrote no record; the test shows nothing")
	}
	if !reflect.DeepEqual(s.coverage, coverage) || s.Evals() != evals {
		t.Fatalf("cancelled DeltaExplore moved the state: coverage %v, %d evals; was %v, %d",
			s.coverage, s.Evals(), coverage, evals)
	}

	got, err := DeltaExplore(context.Background(), s, loose, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DeltaExplore(context.Background(), ref, loose, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-run after the cancel: %d built, swept %d, reused %d; never-cancelled state: %d, %d, %d",
			got.Built, got.Swept, got.Reused, want.Built, want.Swept, want.Reused)
	}
	if !reflect.DeepEqual(s.coverage, ref.coverage) || s.Evals() != ref.Evals() {
		t.Fatalf("after the re-run: coverage %v, %d evals; never-cancelled state %v, %d",
			s.coverage, s.Evals(), ref.coverage, ref.Evals())
	}
	assertDeltaParity(t, s, loose)
}

// allocsAndBytes runs fn once to warm the sweep's batch pool, then
// returns the mean allocations and bytes of 20 more runs.
func allocsAndBytes(fn func()) (allocs, bytes float64) {
	const runs = 20
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestDeltaRecordAllocBudget bounds what recording a 16-Mbit state
// costs beyond the pruned sweep itself: a fixed handful of objects,
// and bytes bounded by the size of the space, not by the number of
// retained records. A record per point on the heap, or a buffer of
// full records (48 B each), would break the byte bound: the state
// retains enough records that 48 B each exceed the whole store.
func TestDeltaRecordAllocBudget(t *testing.T) {
	r := Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5}
	ctx := context.Background()
	sweepAllocs, sweepBytes := allocsAndBytes(func() {
		if _, err := SweepContext(ctx, r, WithWorkers(1), WithPruning()); err != nil {
			t.Fatal(err)
		}
	})
	var s *DeltaState
	recAllocs, recBytes := allocsAndBytes(func() {
		var err error
		if s, err = NewDeltaState(r); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Record(ctx, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	sp := s.space
	store := float64(sp.total*8 + sp.total/sp.radix[digitPage]*32 + (sp.total+63)/64*8)
	const allocBudget, byteSlack = 32, 8 << 10
	t.Logf("Record: %.0f allocations and %.0f B beyond the sweep's %.0f and %.0f B; store %.0f B for %d records",
		recAllocs-sweepAllocs, recBytes-sweepBytes, sweepAllocs, sweepBytes, store, s.Evals())
	if float64(s.Evals())*48 <= store+byteSlack {
		t.Fatalf("%d retained records; the byte bound cannot tell them from the store", s.Evals())
	}
	if recAllocs-sweepAllocs > allocBudget {
		t.Fatalf("Record allocates %.0f objects beyond its sweep, budget %d", recAllocs-sweepAllocs, allocBudget)
	}
	if recBytes-sweepBytes > store+byteSlack {
		t.Fatalf("Record allocates %.0f B beyond its sweep, bound %.0f B (the store plus %d B)",
			recBytes-sweepBytes, store+byteSlack, byteSlack)
	}
}

// BenchmarkDeltaRecord measures DeltaState.Record of a 16-Mbit state:
// the pruned sweep with every built record written into the state's
// store, and the seal.
func BenchmarkDeltaRecord(b *testing.B) {
	r := Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, DefectsPerCm2: 0.8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewDeltaState(r)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Record(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
