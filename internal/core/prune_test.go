package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"edram/internal/edram"
	"edram/internal/geom"
	"edram/internal/reliab"
	"edram/internal/tech"
)

// collectSorted sweeps with the options and returns the built
// candidates in canonical Seq order, the final stats and the fold.
func collectSorted(t *testing.T, req Requirements, opts ...ExploreOption) ([]Candidate, ExploreStats, SweepResult) {
	t.Helper()
	var final ExploreStats
	var out []Candidate
	opts = append(opts,
		WithProgress(func(s ExploreStats) {
			if s.Done {
				final = s
			}
		}),
		WithObserver(func(c Candidate) { out = append(out, c) }))
	res, err := SweepContext(context.Background(), req, opts...)
	if err != nil {
		t.Fatalf("SweepContext: %v", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if !final.Done {
		t.Fatalf("no final progress snapshot")
	}
	return out, final, res
}

// pruneParityReqs is the constraint matrix the parity tests sweep:
// unconstrained, each monotone constraint alone at a pruning-relevant
// value, all combined, a multi-process request, and an
// over-the-concept-ceiling capacity whose whole space is skipped.
func pruneParityReqs() map[string]Requirements {
	return map[string]Requirements{
		"unconstrained": {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5},
		"tight-area":    {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 20},
		"impossible-area": {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5,
			MaxAreaMm2: 0.001},
		"high-bw":   {CapacityMbit: 16, BandwidthGBps: 3.5, HitRate: 0.8},
		"min-clock": {CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MinClockMHz: 95},
		"combined": {CapacityMbit: 32, BandwidthGBps: 2.5, HitRate: 0.7,
			MaxAreaMm2: 60, MaxPowerMW: 900, MinClockMHz: 80, DefectsPerCm2: 0.8},
		"multi-proc": {CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.6,
			MaxAreaMm2: 40, Processes: tech.Processes()},
		"over-ceiling": {CapacityMbit: 1000, BandwidthGBps: 1, HitRate: 0.5},
		"odd-capacity": {CapacityMbit: 13, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 25},
	}
}

// assertPruneParity pins the tentpole invariant between an unpruned and
// a pruned run of the same window: the pruned stream is exactly the
// unpruned stream minus analytically skipped points, every candidate
// the pruning removed was infeasible (soundness), the feasible sets are
// identical, and the pruned fold equals the unpruned one.
func assertPruneParity(t *testing.T, plain, pruned []Candidate, ps, qs ExploreStats, pr, qr SweepResult) {
	t.Helper()
	if ps.Skipped != 0 || ps.SkippedBuildable != 0 {
		t.Fatalf("unpruned run reported skips: %+v", ps)
	}
	bySeq := make(map[int]*Candidate, len(plain))
	for i := range plain {
		bySeq[plain[i].Seq] = &plain[i]
	}
	for i := range pruned {
		c := &pruned[i]
		want := bySeq[c.Seq]
		if want == nil {
			t.Fatalf("pruned run emitted Seq %d the unpruned run did not", c.Seq)
		}
		if !reflect.DeepEqual(*want, *c) {
			t.Fatalf("candidate Seq %d differs:\nunpruned %+v\npruned   %+v", c.Seq, *want, *c)
		}
		delete(bySeq, c.Seq)
	}
	for seq, c := range bySeq {
		if c.Feasible {
			t.Fatalf("pruning removed feasible candidate Seq %d: %+v", seq, *c)
		}
	}
	if int64(len(plain)-len(pruned)) != qs.SkippedBuildable {
		t.Fatalf("pruning removed %d built candidates but SkippedBuildable is %d",
			len(plain)-len(pruned), qs.SkippedBuildable)
	}
	if pr.Enumerated != ps.Enumerated || pr.Built != ps.Built || pr.Infeasible != ps.Infeasible {
		t.Fatalf("unpruned fold %d/%d/%d differs from its counters %+v", pr.Enumerated, pr.Built, pr.Infeasible, ps)
	}
	// The closest miss is the one part of the fold that depends on
	// what was enumerated: each run's is the CloserMiss pick over its
	// own stream, and the rest of the folds must be equal.
	for _, run := range []struct {
		cands []Candidate
		res   *SweepResult
	}{{plain, &pr}, {pruned, &qr}} {
		if want := streamNearest(run.cands); !reflect.DeepEqual(run.res.Nearest, want) {
			t.Fatalf("fold's closest miss Seq %d %q, stream's Seq %d %q",
				run.res.Nearest.Seq, run.res.Nearest.Reasons, want.Seq, want.Reasons)
		}
		run.res.Nearest = Candidate{}
	}
	if !reflect.DeepEqual(pr, qr) {
		t.Fatalf("folds differ:\nunpruned %d/%d/%d, %d front\npruned   %d/%d/%d, %d front",
			pr.Enumerated, pr.Built, pr.Infeasible, len(pr.Frontier), qr.Enumerated, qr.Built, qr.Infeasible, len(qr.Frontier))
	}
	if qs.Pruned != ps.Pruned || qs.FrontSize != ps.FrontSize {
		t.Fatalf("front counters differ: pruned %+v vs unpruned %+v", qs, ps)
	}
}

// streamNearest is the CloserMiss pick over a candidate stream.
func streamNearest(cands []Candidate) Candidate {
	var nearest Candidate
	for i := range cands {
		if c := &cands[i]; !c.Feasible && CloserMiss(c, &nearest) {
			nearest = *c
		}
	}
	return nearest
}

func TestPrunedExploreParity(t *testing.T) {
	for name, req := range pruneParityReqs() {
		req := req
		t.Run(name, func(t *testing.T) {
			plain, ps, pr := collectSorted(t, req)
			pruned, qs, qr := collectSorted(t, req, WithPruning())
			assertPruneParity(t, plain, pruned, ps, qs, pr, qr)
		})
	}
}

// TestPrunedExploreRangeParity pins byte-compatibility of Seq numbering
// under pruning for ranged sweeps — the property job partitions and
// job checkpoints rely on: a window of a pruned sweep equals the same
// window of an unpruned sweep, and the windowed tallies still fold to
// the unpruned window totals.
func TestPrunedExploreRangeParity(t *testing.T) {
	req := Requirements{CapacityMbit: 32, BandwidthGBps: 2.5, HitRate: 0.7,
		MaxAreaMm2: 60, MinClockMHz: 80}
	total := SweepCount(req)
	windows := [][2]int{{0, total}, {0, total / 3}, {total / 3, 2 * total / 3},
		{2 * total / 3, total}, {total / 2, total/2 + 1}, {7, 777}}
	for _, w := range windows {
		plain, ps, pr := collectSorted(t, req, WithSeqRange(w[0], w[1]))
		pruned, qs, qr := collectSorted(t, req, WithSeqRange(w[0], w[1]), WithPruning())
		assertPruneParity(t, plain, pruned, ps, qs, pr, qr)
	}
}

// referencePoints enumerates the design space with plain nested loops
// in the canonical order — the independent oracle space.point and the
// enumerator are checked against. It shares no code with space.
func referencePoints(req Requirements, procs []tech.Process) []Point {
	var out []Point
	for _, macros := range []int{1, 2} {
		if req.CapacityMbit%macros != 0 {
			continue
		}
		for iface := 16; iface <= 512; iface *= 2 {
			for banks := 1; banks <= 8; banks *= 2 {
				for _, pageMult := range []int{4, 8, 16} {
					for _, block := range []int{geom.Block256K, geom.Block1M} {
						for _, red := range []edram.RedundancyLevel{edram.RedundancyNone, edram.RedundancyLow, edram.RedundancyStd, edram.RedundancyHigh} {
							for _, ecc := range []reliab.ECC{reliab.ECCNone, reliab.ECCSECDED} {
								for pi := range procs {
									out = append(out, Point{
										Seq:    len(out),
										Macros: macros,
										Spec: edram.Spec{
											CapacityMbit:  req.CapacityMbit / macros,
											InterfaceBits: iface,
											Banks:         banks,
											PageBits:      iface * pageMult,
											BlockBits:     block,
											Redundancy:    red,
											ECC:           ecc,
											Process:       &procs[pi],
										},
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// drainSweep collects the points the sweep's workers walk for the
// whole space of req through the empty plan, block by block in claim
// order.
func drainSweep(t *testing.T, req Requirements) []Point {
	t.Helper()
	sp := newSpace(req, resolveProcesses(req))
	ranges := (&prunePlan{}).enumerated(0, sp.total)
	var out []Point
	var c cursor
	for blk := 0; blk <= (sp.total-1)/sp.blockSpan(); blk++ {
		sp.walkBlock(ranges, blk, &c, func() { out = append(out, sp.at(c.seq, &c.d)) })
	}
	return out
}

// TestPointAtInvertsSweep pins space.point and space.walk as exact
// decoders of the nested-loop reference enumeration, including for
// multi-process and one-organization requests.
func TestPointAtInvertsSweep(t *testing.T) {
	for _, req := range []Requirements{
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5},
		{CapacityMbit: 13, BandwidthGBps: 1, HitRate: 0.5},
		{CapacityMbit: 8, BandwidthGBps: 1, HitRate: 0.5, Processes: tech.Processes()},
	} {
		sp := newSpace(req, resolveProcesses(req))
		ref := referencePoints(req, sp.procs)
		if len(ref) != sp.total || sp.total != SweepCount(req) {
			t.Fatalf("reference has %d points, space %d, SweepCount %d", len(ref), sp.total, SweepCount(req))
		}
		for _, want := range ref {
			if got := sp.point(want.Seq); got != want {
				t.Fatalf("point(%d) = %+v, reference %+v", want.Seq, got, want)
			}
		}
		// walk steps the digits from its first Seq; start it mid-digit.
		for _, from := range []int{0, 1, 7, sp.total / 3, sp.total - 5} {
			to := min(from+200, sp.total)
			var got []Point
			var c cursor
			sp.walk(from, to, &c, func() { got = append(got, sp.at(c.seq, &c.d)) })
			if !reflect.DeepEqual(got, ref[from:to]) {
				t.Fatalf("walk(%d, %d) differs from the reference", from, to)
			}
		}
	}
}

// TestSpacePointAllocs pins delta materialization's decoder as
// allocation-free.
func TestSpacePointAllocs(t *testing.T) {
	req := Requirements{CapacityMbit: 32, BandwidthGBps: 1, HitRate: 0.5}
	sp := newSpace(req, resolveProcesses(req))
	if n := testing.AllocsPerRun(100, func() { _ = sp.point(sp.total - 1) }); n != 0 {
		t.Fatalf("space.point allocates %v times per call", n)
	}
}

// TestPlanEnumeratedComplementsTally pins the two plan views against
// each other: over any window, enumerated intervals plus tallied skips
// cover the window exactly.
func TestPlanEnumeratedComplementsTally(t *testing.T) {
	req := Requirements{CapacityMbit: 16, BandwidthGBps: 3, HitRate: 0.6, MaxAreaMm2: 30}
	sp := newSpace(req, resolveProcesses(req))
	plan := newPrunePlan(req, sp)
	if len(plan.runs) == 0 {
		t.Fatalf("expected skip runs for the default process")
	}
	total := sp.total
	for _, w := range [][2]int{{0, total}, {5, total - 5}, {total / 2, total/2 + 100}} {
		skipped, _ := plan.tally(w[0], w[1])
		enum := 0
		last := w[0]
		for _, r := range plan.enumerated(w[0], w[1]) {
			if r.From < last || r.To <= r.From || r.To > w[1] {
				t.Fatalf("window %v: bad interval %+v", w, r)
			}
			last = r.To
			enum += r.To - r.From
		}
		if int64(enum)+skipped != int64(w[1]-w[0]) {
			t.Fatalf("window %v: enumerated %d + skipped %d != %d", w, enum, skipped, w[1]-w[0])
		}
	}
}
