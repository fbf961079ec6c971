// Memoized sub-model evaluation for the design-space sweep. Most sweep
// dimensions leave the macro skeleton untouched: the page length is the
// innermost-but-one free dimension, yet geometry, block timing, area
// and die cost are all page-length-independent (see edram.Template).
// evalMemo computes those sub-results once per unique projection of the
// spec and shares them across the page variants — the CACTI-lineage
// trick of memoizing shared sub-models across configurations.
//
// Determinism: a memo hit replays values produced by exactly the same
// pure float computations the unmemoized path would run on identical
// inputs, so memoized and unmemoized explores are byte-identical
// (pinned by TestExploreMemoParity).

package core

import (
	"fmt"
	"sync"

	"edram/internal/cost"
	"edram/internal/edram"
	"edram/internal/power"
	"edram/internal/tech"
)

// skelEntry is one memoized bundle: the macro template plus the die-cost
// results. Both depend only on the point's digits other than the page
// — the die cost reads the template's (page-independent) area, the
// macro count (the org digit) and the explore's fixed defect density.
// A nil tmpl after the once marks the projection unbuildable.
type skelEntry struct {
	once       sync.Once
	tmpl       *edram.Template
	dieCostUSD float64
	dieYield   float64
}

// evalMemo is a per-sweep memo table, one entry per point of the
// space's Seq layout with the page digit removed (the page is the one
// digit a template ignores). The dense slice is allocated once and
// never grows, so a lookup is an index and each entry fills exactly
// once through its sync.Once, blocking only workers racing on that
// same projection. The table is scoped to one sweep: the requirements'
// defect density is part of every cached die cost and must not leak
// across runs.
type evalMemo struct {
	req     Requirements
	space   *space
	e       tech.Electrical
	ce      power.CoreEnergy
	base    int // memo index of entries[0]
	entries []skelEntry
}

// newEvalMemo builds the table covering the Seq window [from, to) of
// the space.
func newEvalMemo(req Requirements, sp *space, from, to int) *evalMemo {
	mm := &evalMemo{req: req, space: sp, e: tech.DefaultElectrical(), ce: power.DefaultCoreEnergy()}
	if from < to {
		// The index of a Seq rises with its digits above the page and
		// cycles with those below it, so the window's indices lie within
		// the whole above-page blocks that its two ends fall in.
		span := sp.stride[digitPage] * sp.radix[digitPage]
		mm.base = from / span * sp.stride[digitPage]
		end := ((to-1)/span + 1) * sp.stride[digitPage]
		mm.entries = make([]skelEntry, end-mm.base)
	}
	return mm
}

// entry returns the filled memo entry of a point: the index is the
// point's Seq with the page digit removed. A point outside the table's
// window gets a one-off entry.
func (mm *evalMemo) entry(pt *Point) *skelEntry {
	st, r := mm.space.stride[digitPage], mm.space.radix[digitPage]
	var ent *skelEntry
	if i := pt.Seq/(st*r)*st + pt.Seq%st - mm.base; i >= 0 && i < len(mm.entries) {
		ent = &mm.entries[i]
	} else {
		ent = new(skelEntry)
	}
	ent.once.Do(func() {
		tmpl, err := edram.NewTemplate(pt.Spec)
		if err != nil {
			return
		}
		areaMm2 := float64(pt.Macros) * tmpl.TotalAreaMm2()
		dieCost, dieYield, err := cost.MacroDieCost(
			tmpl.Process(), 0, areaMm2, mm.req.DefectsPerCm2, repairFractionFor(pt.Spec.Redundancy))
		if err != nil {
			return
		}
		ent.tmpl, ent.dieCostUSD, ent.dieYield = tmpl, dieCost, dieYield
	})
	return ent
}

// evaluate is a worker's per-point work: it instantiates the point
// into the worker's scratch macro and writes its outcome — the
// evaluation record and violation mask, or unbuildable. The record's
// floats are byte-for-byte those of the unmemoized evaluate (both run
// measure). For a sweep with an observer it also assembles the full
// candidate, on a macro of its own, through scoreCandidate, so the
// observer's candidates are built on the workers.
func (mm *evalMemo) evaluate(o *outcome, pt *Point, scratch *edram.Macro, observed bool) {
	ent := mm.entry(pt)
	if o.ok = ent.tmpl != nil && ent.tmpl.PageFits(pt.Spec.PageBits); !o.ok {
		return
	}
	m := scratch
	if observed {
		m = new(edram.Macro) // the observer's candidate keeps it
	}
	if o.ok = ent.tmpl.InstantiateInto(m, pt.Spec.PageBits) == nil; !o.ok {
		return
	}
	o.ev = measure(pt.Seq, m, pt.Macros, &mm.req, mm.e, mm.ce, ent.dieCostUSD)
	o.viol = violations(&o.ev, &mm.req)
	if observed {
		o.cand = scoreCandidate(pt.Spec, pt.Macros, m, mm.req, mm.e, mm.ce, ent.dieCostUSD, ent.dieYield)
		o.cand.Seq = pt.Seq
	}
}

// candidate materializes the full Candidate of a built point from its
// Seq alone: the space's point, the memo's template, then
// scoreCandidate — the same pure computations the worker ran, so the
// bytes match the record it emitted. It is the only way the fold and
// DeltaExplore turn a record into a Candidate. A Seq that has a record
// is buildable by construction; any other is a programming error.
func (mm *evalMemo) candidate(seq int) Candidate {
	pt := mm.space.point(seq)
	ent := mm.entry(&pt)
	m := new(edram.Macro)
	if ent.tmpl == nil || ent.tmpl.InstantiateInto(m, pt.Spec.PageBits) != nil {
		panic(fmt.Sprintf("core: materializing seq %d, which has no evaluation record", seq))
	}
	c := scoreCandidate(pt.Spec, pt.Macros, m, mm.req, mm.e, mm.ce, ent.dieCostUSD, ent.dieYield)
	c.Seq = seq
	return c
}
