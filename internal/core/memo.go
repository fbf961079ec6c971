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
	"sync"

	"edram/internal/cost"
	"edram/internal/edram"
	"edram/internal/power"
	"edram/internal/reliab"
	"edram/internal/tech"
)

// skelKey identifies the page-length-independent projection of one sweep
// point: every Spec field except PageBits. The process travels by
// pointer identity: every point of one explore points into the
// explore's resolved process slice, so equal pointers mean the same
// process parameters. The name alone would alias same-named but
// differently-parameterized custom processes, the aliasing class fixed
// for the service cache keys (see DESIGN.md §6 canonical-key rules);
// two slice positions with equal parameters merely compute the same
// entry twice.
type skelKey struct {
	proc         *tech.Process
	capacityMbit int
	ifaceBits    int
	banks        int
	blockBits    int
	redundancy   edram.RedundancyLevel
	ecc          reliab.ECC
	targetClock  float64
	skipBIST     bool
}

// skelEntry is one memoized bundle: the macro template plus the die-cost
// results. Both depend only on the key — the die cost reads the
// template's (page-independent) area, the macro count and the explore's
// fixed defect density, and within one explore the macro count is a
// function of the key (macros = req.CapacityMbit / key.capacityMbit,
// the inverse of how space.point derives per-macro capacity).
type skelEntry struct {
	once sync.Once

	tmpl *edram.Template
	err  error // NewTemplate failure: the whole projection is unbuildable

	dieCostUSD float64
	dieYield   float64
	costErr    error
}

// evalMemo is a per-explore concurrent memo table. A plain map under an
// RWMutex beats sync.Map here: the comparable struct key needs no
// interface boxing (sync.Map allocates a key box plus a speculative
// entry on every lookup), hits take one uncontended RLock, and entries
// are filled exactly once via their sync.Once outside the write lock so
// workers racing on the same projection block only for the first
// computation. The table is scoped to one sweep: the
// requirements (defect density, hit rate) are part of every cached
// computation and must not leak across runs.
type evalMemo struct {
	req Requirements

	mu    sync.RWMutex
	skels map[skelKey]*skelEntry
}

// newEvalMemo builds the table for one explore.
func newEvalMemo(req Requirements) *evalMemo {
	return &evalMemo{
		req:   req,
		skels: make(map[skelKey]*skelEntry, 1024),
	}
}

// entry returns the (unique) skelEntry for the key, creating it on
// first sight. The double-checked write path keeps the computation
// itself out of both locks.
func (mm *evalMemo) entry(k skelKey) *skelEntry {
	mm.mu.RLock()
	ent := mm.skels[k]
	mm.mu.RUnlock()
	if ent != nil {
		return ent
	}
	mm.mu.Lock()
	ent = mm.skels[k]
	if ent == nil {
		ent = &skelEntry{}
		mm.skels[k] = ent
	}
	mm.mu.Unlock()
	return ent
}

// macroArena hands out Macro slots from chunks so each sweep batch
// costs one bulk allocation instead of one malloc per built point.
// Chunks are intentionally not pooled: the macros escape into
// Candidates owned by the caller. One arena belongs to one worker
// goroutine.
type macroArena struct {
	chunk []edram.Macro
}

// next returns a fresh zero slot.
func (a *macroArena) next() *edram.Macro {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]edram.Macro, 0, sweepBatch)
	}
	a.chunk = a.chunk[:len(a.chunk)+1]
	return &a.chunk[len(a.chunk)-1]
}

// undo returns the most recent slot (nothing may reference it).
func (a *macroArena) undo() {
	a.chunk = a.chunk[:len(a.chunk)-1]
}

// evaluateInto is the memoized form of core.evaluate, writing the
// candidate into dst (fully overwritten either way) and reporting
// buildability — byte-for-byte the results of the unmemoized path,
// with the template and die-cost sub-models served from the memo table
// and the macro allocated from the worker's arena.
func (mm *evalMemo) evaluateInto(dst *Candidate, pt *Point, e tech.Electrical, ce power.CoreEnergy, ar *macroArena) bool {
	spec := pt.Spec
	macros := pt.Macros
	if macros < 1 {
		macros = 1
	}
	k := skelKey{
		proc:         spec.Process,
		capacityMbit: spec.CapacityMbit,
		ifaceBits:    spec.InterfaceBits,
		banks:        spec.Banks,
		blockBits:    spec.BlockBits,
		redundancy:   spec.Redundancy,
		ecc:          spec.ECC,
		targetClock:  spec.TargetClockMHz,
		skipBIST:     spec.SkipBIST,
	}
	ent := mm.entry(k)
	ent.once.Do(func() {
		ent.tmpl, ent.err = edram.NewTemplate(spec)
		if ent.err != nil {
			return
		}
		areaMm2 := float64(macros) * ent.tmpl.TotalAreaMm2()
		ent.dieCostUSD, ent.dieYield, ent.costErr = cost.MacroDieCost(
			ent.tmpl.Process(), 0, areaMm2, mm.req.DefectsPerCm2, repairFractionFor(spec.Redundancy))
	})
	if ent.err != nil {
		*dst = Candidate{}
		return false
	}
	m := ar.next()
	if err := ent.tmpl.InstantiateInto(m, spec.PageBits); err != nil {
		ar.undo()
		*dst = Candidate{}
		return false
	}
	if ent.costErr != nil {
		ar.undo()
		*dst = Candidate{}
		return false
	}
	*dst = scoreCandidate(spec, macros, m, mm.req, e, ce, ent.dieCostUSD, ent.dieYield)
	return true
}
