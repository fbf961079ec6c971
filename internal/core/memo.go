// Memoized sub-model evaluation for the design-space sweep. Most sweep
// dimensions leave the macro skeleton untouched: the page length is the
// innermost-but-one free dimension, yet geometry, block timing, area
// and die cost are all page-length-independent (see edram.Template).
// Each sweep worker computes those sub-results once per unique
// projection of the spec, into a slot table it owns, and shares them
// across the page variants — the CACTI-lineage trick of memoizing
// shared sub-models across configurations.
//
// Determinism: a memo hit replays values produced by exactly the same
// pure float computations the unmemoized path would run on identical
// inputs, so memoized and unmemoized explores are byte-identical
// (pinned by TestExploreMemoParity).

package core

import (
	"fmt"

	"edram/internal/cost"
	"edram/internal/edram"
	"edram/internal/power"
	"edram/internal/tech"
)

// memoSlot is one memoized bundle: the macro template plus the die-cost
// results. Both depend only on the point's digits other than the page
// — the die cost reads the template's (page-independent) area, the
// macro count (the org digit) and the explore's fixed defect density.
// proj is the projection the slot was last filled for (space.proj: the
// Seq with its page digit removed), -1 before the first fill. ok false
// marks that projection unbuildable.
type memoSlot struct {
	proj       int
	ok         bool
	tmpl       edram.Template
	dieCostUSD float64
	dieYield   float64
}

// evalMemo is what a sweep's workers share to evaluate its points: the
// requirements, the Seq layout and the power model. It is scoped to one
// sweep: the requirements' defect density is part of every cached die
// cost and must not leak across runs. The memo itself lives in each
// worker's slot table (see table).
type evalMemo struct {
	req   Requirements
	space *space
	e     tech.Electrical
	ce    power.CoreEnergy
}

// newEvalMemo returns the shared evaluation context of one sweep of req
// over sp.
func newEvalMemo(req Requirements, sp *space) *evalMemo {
	return &evalMemo{req: req, space: sp, e: tech.DefaultElectrical(), ce: power.DefaultCoreEnergy()}
}

// table returns an empty slot table for one worker: one slot per
// combination of the digits below the page, so the page variants of a
// projection share a slot and the projections of one above-page block
// each have their own. A worker claims whole blocks, so every
// projection is built once; a slot is refilled whenever a point's
// projection differs from its tag, so correctness depends neither on
// which points a worker gets nor on the table's length.
func (mm *evalMemo) table() []memoSlot {
	slots := make([]memoSlot, mm.space.stride[digitPage])
	for i := range slots {
		slots[i].proj = -1
	}
	return slots
}

// evaluate is a worker's per-point work: it refills the point's slot
// in place unless the slot already holds the point's projection,
// instantiates the point into the worker's scratch macro and writes its
// outcome — the evaluation record and violation mask, or unbuildable.
// The record's floats are byte-for-byte those of the unmemoized
// evaluate (both run measure). For a sweep with an observer (cand
// non-nil) it also assembles the full candidate into *cand, on a macro
// of its own, through scoreCandidate, so the observer's candidates are
// built on the workers.
func (mm *evalMemo) evaluate(o *outcome, cand *Candidate, pt *Point, slots []memoSlot, scratch *edram.Macro) {
	sl := &slots[pt.Seq%len(slots)]
	if proj := mm.space.proj(pt.Seq); sl.proj != proj {
		err := sl.tmpl.Reset(pt.Spec)
		if err == nil {
			sl.dieCostUSD, sl.dieYield, err = cost.MacroDieCost(sl.tmpl.Process(), 0,
				float64(pt.Macros)*sl.tmpl.TotalAreaMm2(), mm.req.DefectsPerCm2, repairFractionFor(pt.Spec.Redundancy))
		}
		sl.proj, sl.ok = proj, err == nil
	}
	if o.ok = sl.ok && sl.tmpl.PageFits(pt.Spec.PageBits); !o.ok {
		return
	}
	m := scratch
	if cand != nil {
		m = new(edram.Macro) // the observer's candidate keeps it
	}
	if o.ok = sl.tmpl.InstantiateInto(m, pt.Spec.PageBits) == nil; !o.ok {
		return
	}
	o.ev = measure(pt.Seq, m, pt.Macros, &mm.req, mm.e, mm.ce, sl.dieCostUSD)
	o.viol = violations(&o.ev, &mm.req)
	if cand != nil {
		*cand = scoreCandidate(pt.Spec, pt.Macros, m, mm.req, mm.e, mm.ce, sl.dieCostUSD, sl.dieYield)
		cand.Seq = pt.Seq
	}
}

// candidate materializes the full Candidate of a built point from its
// Seq alone: the space's point evaluated as an observed sweep would,
// through a one-slot table on the stack — the same pure computations
// the worker ran, so the bytes match the record it emitted. It is the
// only way the fold and DeltaExplore turn a record into a Candidate. A
// Seq that has a record is buildable by construction; any other is a
// programming error.
func (mm *evalMemo) candidate(seq int) Candidate {
	pt := mm.space.point(seq)
	var o outcome
	var c Candidate
	if mm.evaluate(&o, &c, &pt, []memoSlot{{proj: -1}}, nil); !o.ok {
		panic(fmt.Sprintf("core: materializing seq %d, which has no evaluation record", seq))
	}
	return c
}
