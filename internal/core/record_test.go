package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"edram/internal/power"
	"edram/internal/tech"
)

// TestRecordMatchesMacro pins the sweep's template-measured record to
// the Macro path: for every point of the memo-parity cases (the
// odd-capacity multi-process one included), the point builds through
// its slot exactly when the unmemoized evaluate builds it, and its
// record equals measure over the unmemoized path's Macro bit for bit.
func TestRecordMatchesMacro(t *testing.T) {
	multi := []tech.Process{tech.Siemens024(), tech.Logic024()}
	cases := map[string]Requirements{
		"default-process":            req(),
		"multi-process":              {CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8, Processes: multi},
		"odd-capacity-multi-process": {CapacityMbit: 13, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8, Processes: multi},
		"constrained":                {CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8, MaxAreaMm2: 40, MaxPowerMW: 900, MinClockMHz: 100},
	}
	e, ce := tech.DefaultElectrical(), power.DefaultCoreEnergy()
	bits := func(ev pointEval) [6]uint64 {
		return [6]uint64{uint64(ev.seq), math.Float64bits(ev.area), math.Float64bits(ev.power),
			math.Float64bits(ev.cost), math.Float64bits(ev.sustained), math.Float64bits(ev.clock)}
	}
	for name, r := range cases {
		sp := newSpace(r, resolveProcesses(r))
		mm := newEvalMemo(r, sp)
		built := 0
		for seq := 0; seq < sp.total; seq++ {
			pt := sp.point(seq)
			var sl memoSlot
			mm.fill(&sl, &pt)
			ok := sl.ok && sl.tmpl.PageFits(pt.Spec.PageBits)
			c, err := evaluate(pt.Spec, pt.Macros, &r, &e, &ce)
			if ok != (err == nil) {
				t.Fatalf("%s: seq %d builds through its slot: %v; unmemoized evaluate: %v", name, seq, ok, err)
			}
			if !ok {
				continue
			}
			built++
			got, want := mm.record(seq, &sl, pt.Spec.PageBits), measure(seq, c.Macro, pt.Macros, &r, &e, &ce, c.CostUSD)
			if bits(got) != bits(want) {
				t.Fatalf("%s: seq %d: template record %+v, measure over the Macro %+v", name, seq, got, want)
			}
		}
		if built == 0 {
			t.Fatalf("%s: no point built; the case shows nothing", name)
		}
	}
}

// TestEvaluateAllocatesNothing: a worker evaluating a built point —
// through a filled slot, or refilling the slot first — touches the heap
// not at all; only a materialized candidate allocates.
func TestEvaluateAllocatesNothing(t *testing.T) {
	r := req()
	sp := newSpace(r, resolveProcesses(r))
	mm := newEvalMemo(r, sp)
	slots := mm.table()
	var c cursor
	var o outcome
	c.seq = sp.total / 2
	c.d = sp.digits(c.seq)
	if mm.evaluate(&o, &c, slots); !o.ok {
		t.Fatalf("seq %d does not build; pick a built point", c.seq)
	}
	sl := &slots[c.seq%len(slots)]
	for name, refill := range map[string]bool{"filled slot": false, "refilled slot": true} {
		allocs := testing.AllocsPerRun(100, func() {
			if refill {
				sl.proj = -1
			}
			mm.evaluate(&o, &c, slots)
		})
		if allocs != 0 {
			t.Errorf("%s: evaluate allocates %.1f times per point", name, allocs)
		}
	}
}

// TestFrontImplementationsAgree feeds seeded random records — drawn
// from a coarse grid so objectives tie, with exact duplicates mixed in —
// to the fold's record front, to Frontier.Add and to Pareto followed by
// sortCandidates: all three keep the same members in the same
// canonical order and discard the same number.
func TestFrontImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	grid := func() float64 { return float64(1 + rng.Intn(6)) }
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(120)
		cands := make([]Candidate, 0, n)
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(8) == 0 { // an exact duplicate
				cands = append(cands, cands[rng.Intn(i)])
				continue
			}
			cands = append(cands, Candidate{Seq: rng.Intn(4 * n), AreaMm2: grid(), PowerMW: grid(),
				CostUSD: grid(), SustainedGBps: grid(), Feasible: true})
		}

		f := newFold()
		fr := NewFrontier()
		for i := range cands {
			ev := recordOf(&cands[i])
			f.add(&ev, 0)
			fr.Add(cands[i])
		}
		sort.Sort(&f.front)
		batch := Pareto(cands)
		sortCandidates(batch)

		records := func(cs []Candidate) []pointEval {
			out := make([]pointEval, len(cs))
			for i := range cs {
				out[i] = recordOf(&cs[i])
			}
			return out
		}
		want := records(batch)
		if got := f.front.recs; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: fold front %v, Pareto %v", round, got, want)
		}
		if got := records(fr.Candidates()); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: Frontier %v, Pareto %v", round, got, want)
		}
		pruned := int64(n - len(batch))
		if f.front.pruned != pruned || fr.Pruned() != pruned {
			t.Fatalf("round %d: pruned fold %d, Frontier %d; Pareto discarded %d", round, f.front.pruned, fr.Pruned(), pruned)
		}
	}
}

// sortCandidates orders candidates canonically, by their records.
func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := recordOf(&cs[i]), recordOf(&cs[j])
		return canonicalLess(&a, &b)
	})
}
