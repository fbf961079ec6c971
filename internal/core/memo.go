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

// memoSlot is one memoized bundle: the macro template, the die-cost
// results and the page-independent part of the evaluation record. All
// depend only on the point's digits other than the page — the die cost
// reads the template's (page-independent) area, the macro count (the
// org digit) and the explore's fixed defect density. proj is the
// projection the slot was last filled for (space.proj: the Seq with its
// page digit removed), -1 before the first fill. ok false marks that
// projection unbuildable.
type memoSlot struct {
	proj     int
	ok       bool
	macros   int
	tmpl     edram.Template
	pe       projEval // area, die cost, sustained bandwidth and clock
	dieYield float64
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

// fill builds the slot for the projection of pt: the template, the die
// cost and the page-independent record floats, each computed as
// measure computes it from the instantiated Macro.
func (mm *evalMemo) fill(sl *memoSlot, pt *Point) {
	t := &sl.tmpl
	err := t.Reset(pt.Spec)
	if err == nil {
		sl.pe.cost, sl.dieYield, err = cost.MacroDieCost(t.Process(), 0,
			float64(pt.Macros)*t.TotalAreaMm2(), mm.req.DefectsPerCm2, repairFractionFor(pt.Spec.Redundancy))
	}
	if sl.ok = err == nil; !sl.ok {
		return
	}
	n := float64(pt.Macros)
	g := t.Geometry()
	sl.macros = pt.Macros
	sl.pe.area = n * t.TotalAreaMm2()
	sl.pe.sustained = n * sustainedGBps(t.Timing(), g.Banks, g.InterfaceBits, t.ClockMHz(), mm.req.HitRate)
	sl.pe.clock = t.ClockMHz()
}

// record is the evaluation record of a built point of the slot's
// projection: the slot's page-independent floats plus the power at the
// point's page length, from the template — no Macro is built. It is
// bit for bit measure over the instantiated Macro (both run the same
// power and sustained-bandwidth helpers on the same inputs; pinned by
// TestRecordMatchesMacro).
func (mm *evalMemo) record(seq int, sl *memoSlot, pageBits int) pointEval {
	p := sl.tmpl.Power(pageBits, &mm.e, &mm.ce, 1.0, mm.req.HitRate)
	return pointEval{seq, sl.pe.area, float64(sl.macros) * p.TotalMW, sl.pe.cost, sl.pe.sustained, sl.pe.clock}
}

// slot returns the slot of the point at cursor c, refilled in place
// unless it already holds the point's projection, with the point's page
// length and whether the point is buildable.
func (mm *evalMemo) slot(c *cursor, slots []memoSlot) (sl *memoSlot, pageBits int, ok bool) {
	sp := mm.space
	sl = &slots[c.seq%len(slots)]
	if proj := sp.proj(c.seq); sl.proj != proj {
		pt := sp.at(c.seq, &c.d)
		mm.fill(sl, &pt)
		sl.proj = proj
	}
	pageBits = sweepIfaceBits[c.d[digitIface]] * sweepPageMults[c.d[digitPage]]
	return sl, pageBits, sl.ok && sl.tmpl.PageFits(pageBits)
}

// evaluate is a worker's per-point work for the point at cursor c: it
// writes the point's outcome — the evaluation record (from the
// template) and violation mask, or unbuildable.
func (mm *evalMemo) evaluate(o *outcome, c *cursor, slots []memoSlot) {
	sl, pageBits, ok := mm.slot(c, slots)
	if o.ok = ok; !ok {
		return
	}
	o.ev = mm.record(c.seq, sl, pageBits)
	o.viol = violations(&o.ev, &mm.req)
}

// materialize assembles the full Candidate of a built point from its
// filled slot: a Macro of its own, scored through scoreCandidate.
func (mm *evalMemo) materialize(sl *memoSlot, pt *Point) Candidate {
	m := new(edram.Macro) // the candidate keeps it
	if err := sl.tmpl.InstantiateInto(m, pt.Spec.PageBits); err != nil {
		panic(fmt.Sprintf("core: materializing seq %d: %v", pt.Seq, err))
	}
	c := scoreCandidate(pt.Spec, pt.Macros, m, &mm.req, &mm.e, &mm.ce, sl.pe.cost, sl.dieYield)
	c.Seq = pt.Seq
	return c
}

// candidate materializes the full Candidate of a built point from its
// Seq alone: the space's point filled and materialized as the
// observer's pass does, through a slot on the stack — the same pure
// computations the worker ran, so the bytes match the record it
// emitted. It is the only way
// the fold and DeltaExplore turn a record into a Candidate. A Seq that
// has a record is buildable by construction; any other is a programming
// error.
func (mm *evalMemo) candidate(seq int) Candidate {
	pt := mm.space.point(seq)
	var sl memoSlot
	if mm.fill(&sl, &pt); !sl.ok || !sl.tmpl.PageFits(pt.Spec.PageBits) {
		panic(fmt.Sprintf("core: materializing seq %d, which has no evaluation record", seq))
	}
	return mm.materialize(&sl, &pt)
}
