package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"edram/internal/power"
	"edram/internal/tech"
)

// exploreUnmemoized replays the nested-loop reference enumeration
// through the plain (unmemoized) evaluate path, in canonical order —
// the reference the memoized engine must reproduce byte-for-byte.
func exploreUnmemoized(t *testing.T, r Requirements) []Candidate {
	t.Helper()
	e := tech.DefaultElectrical()
	ce := power.DefaultCoreEnergy()
	var out []Candidate
	for _, pt := range referencePoints(r, resolveProcesses(r)) {
		c, err := evaluate(pt.Spec, pt.Macros, &r, &e, &ce)
		if err != nil {
			continue // unbuildable corner, same as the engine's !ok
		}
		c.Seq = pt.Seq
		out = append(out, c)
	}
	return out
}

// TestExploreMemoParity pins the tentpole determinism guarantee: the
// memoized engine (Explore / Recommend) and the unmemoized reference
// path produce byte-identical JSON, candidate by candidate and through
// the frontier + quantization pipeline.
func TestExploreMemoParity(t *testing.T) {
	cases := map[string]Requirements{
		"default-process": req(),
		"multi-process": func() Requirements {
			r := req()
			r.Processes = []tech.Process{tech.Siemens024(), tech.Logic024()}
			return r
		}(),
		// 13 Mbit: bank counts that do not divide the block count make
		// whole projections unbuildable (the template itself fails).
		"odd-capacity-multi-process": func() Requirements {
			r := req()
			r.CapacityMbit = 13
			r.Processes = []tech.Process{tech.Siemens024(), tech.Logic024()}
			return r
		}(),
		"constrained": func() Requirements {
			r := req()
			r.MaxAreaMm2 = 40
			r.MaxPowerMW = 900
			r.MinClockMHz = 100
			return r
		}(),
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			want := exploreUnmemoized(t, r)
			got, err := Explore(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("memoized explore built %d candidates, reference %d", len(got), len(want))
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				for i := range got {
					gj, _ := json.Marshal(got[i])
					wj, _ := json.Marshal(want[i])
					if !bytes.Equal(gj, wj) {
						t.Fatalf("first divergent candidate at Seq %d:\nmemoized:  %s\nreference: %s", got[i].Seq, gj, wj)
					}
				}
				t.Fatal("candidate JSON differs but no per-candidate divergence found")
			}

			// Recommendation parity: the reference set pushed through the
			// same Frontier + Quantize pipeline must match Recommend.
			front := NewFrontier()
			for i := range want {
				front.Add(want[i])
			}
			if front.Size() == 0 {
				t.Fatal("reference frontier empty; case does not exercise recommendations")
			}
			wantRecs := Quantize(front.Candidates())
			gotRecs, err := Recommend(r)
			if err != nil {
				t.Fatal(err)
			}
			wantRecsJSON, err := json.Marshal(wantRecs)
			if err != nil {
				t.Fatal(err)
			}
			gotRecsJSON, err := json.Marshal(gotRecs)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotRecsJSON, wantRecsJSON) {
				t.Fatalf("recommendation JSON diverges:\nmemoized:  %s\nreference: %s", gotRecsJSON, wantRecsJSON)
			}
		})
	}

	// Windows that start and end inside above-page blocks, so a worker's
	// slot table sees partial blocks, and at three workers each worker
	// skips the blocks the others took: a slot must be refilled whenever
	// its projection changes, and a projection whose template fails
	// must leave its slot unusable. Every candidate must still match
	// the reference byte for byte.
	for _, name := range []string{"multi-process", "odd-capacity-multi-process"} {
		r := cases[name]
		ref := exploreUnmemoized(t, r)
		total := SweepCount(r)
		span := newSpace(r, resolveProcesses(r)).blockSpan()
		for _, w := range [][2]int{{7, total - 5}, {span + 5, 3*span - 7}, {2*span - 1, 2*span + 1}} {
			for _, workers := range []int{1, 3} {
				var want []Candidate
				for _, c := range ref {
					if c.Seq >= w[0] && c.Seq < w[1] {
						want = append(want, c)
					}
				}
				var got []Candidate
				if _, err := SweepContext(context.Background(), r, WithWorkers(workers), WithSeqRange(w[0], w[1]),
					WithObserver(func(c Candidate) { got = append(got, c) })); err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i].Seq < got[j].Seq })
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, err := json.Marshal(want)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 || !bytes.Equal(gotJSON, wantJSON) {
					t.Fatalf("%s: window %v at %d workers: %d candidates, reference %d; bytes differ",
						name, w, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestFailReasonMatchesSprintf pins failReason's strconv-based rendering
// to fmt's %.Pf output byte-for-byte across the value classes the
// feasibility checks can produce (plus the pathological floats).
func TestFailReasonMatchesSprintf(t *testing.T) {
	vals := []float64{
		0, 0.125, 1.0 / 3.0, 0.5, 2.675, 15.995, 99.994999,
		123456.789, 1e6, -3.25, -0.0004,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, prec := range []int{0, 1, 2} {
		for _, have := range vals {
			for _, want := range vals {
				got := failReason("have ", have, " vs ", want, prec)
				exp := fmt.Sprintf("have %.*f vs %.*f", prec, have, prec, want)
				if got != exp {
					t.Fatalf("failReason(%g, %g, prec=%d) = %q, Sprintf gives %q", have, want, prec, got, exp)
				}
			}
		}
	}
}

// BenchmarkFrontierAdd measures the incremental Pareto front's insert
// cost over a full sweep's worth of points in canonical order. "fold"
// is what the sweep's collector runs: every built point's record
// through the fold, its front presized. "Frontier.Add" offers the full
// candidates to an exported Frontier, as SweepResult.Merge does.
func BenchmarkFrontierAdd(b *testing.B) {
	r := req()
	cands, err := Explore(r)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]pointEval, len(cands))
	viols := make([]uint8, len(cands))
	for i := range cands {
		recs[i] = recordOf(&cands[i])
		viols[i] = violations(&recs[i], &r)
	}
	b.Run("fold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := newFold()
			for j := range recs {
				f.add(&recs[j], viols[j])
			}
		}
		b.ReportMetric(float64(len(recs)), "records/front")
	})
	b.Run("Frontier.Add", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := NewFrontier()
			for j := range cands {
				f.Add(cands[j])
			}
		}
		b.ReportMetric(float64(len(cands)), "cands/front")
	})
}

// BenchmarkTemplateReset measures one projection's template build: the
// slot fill a sweep worker runs once per projection (template, die cost
// and the page-independent record floats), cycling through the
// projections of the 16-Mbit space.
func BenchmarkTemplateReset(b *testing.B) {
	r := req()
	sp := newSpace(r, resolveProcesses(r))
	mm := newEvalMemo(r, sp)
	var pts []Point
	for seq := 0; seq < sp.total; seq++ {
		if sp.digits(seq)[digitPage] == 0 { // one point per projection
			pts = append(pts, sp.point(seq))
		}
	}
	var sl memoSlot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm.fill(&sl, &pts[i%len(pts)])
	}
}

// BenchmarkEvaluatePoints measures one above-page block through
// evaluate, as a worker runs it: every projection's slot refilled, then
// every page variant measured from its template.
func BenchmarkEvaluatePoints(b *testing.B) {
	r := req()
	sp := newSpace(r, resolveProcesses(r))
	mm := newEvalMemo(r, sp)
	ranges := []seqRange{{0, sp.total}}
	blk := sp.total / sp.blockSpan() / 2
	slots := mm.table()
	outs := make([]outcome, sp.blockSpan())
	var c cursor
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range slots {
			slots[j].proj = -1
		}
		n := 0
		sp.walkBlock(ranges, blk, &c, func() {
			mm.evaluate(&outs[n], &c, slots)
			n++
		})
	}
	b.ReportMetric(float64(sp.blockSpan()), "points/op")
}
