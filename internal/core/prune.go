// Constraint-pruned enumeration for the design-space sweep. Several
// requirement constraints are monotone in a single sweep dimension: the
// interface clock depends only on the building block, peak (and with it
// sustained) bandwidth is maximal in the clock and the interface width,
// and the macro area is minimal at the banks=1 / no-redundancy / no-ECC
// corner of a subspace. A prunePlan evaluates those bounds once per
// (macro-organization, interface, block) subspace and lets the sweep
// skip whole Seq runs whose buildable points are all provably
// infeasible — without enumerating them. Seq numbering stays absolute
// (a skip advances the counter by the exact run length), so ranged
// sweeps, job partitions and their checkpoints remain byte-compatible
// with the unpruned enumeration; tally accounts the skipped points in
// closed form so ExploreStats totals stay exact.
//
// Soundness rule: a subspace may be skipped only when every buildable
// point in it would fail at least one feasibility check of
// scoreCandidate. The bounds below replicate those checks' exact float
// comparisons (clock), or compare against a proven bound with the
// rounding slack on the safe side (area, bandwidth) — a pruned explore
// therefore streams the identical candidate set as an unpruned one
// (pinned by the pruning-parity tests).

package core

import (
	"edram/internal/edram"
	"edram/internal/geom"
	"edram/internal/reliab"
	"edram/internal/tech"
	"edram/internal/timing"
	"edram/internal/units"
)

// bwPruneSlack is the relative safety margin of the bandwidth prune.
// SustainedEstimate never exceeds the peak bandwidth in exact
// arithmetic (the hit/miss-weighted cycle average is at least the hit
// cycle), but its float rounding can land a few ulp above peak; the
// margin is ~1e6 ulp wide, so a skip decided against
// macros*peak*bwPruneSlack can never discard a point the exact
// comparison in scoreCandidate would have kept.
const bwPruneSlack = 1 + 1e-9

// seqRange is a half-open [From, To) interval of canonical sequence
// numbers.
type seqRange struct{ From, To int }

// skipRun is one contiguous skipped Seq interval. structOK records
// whether the run's points are structurally buildable (they then count
// toward SkippedBuildable — all provably infeasible); runs skipped for
// structural reasons (capacity over the concept ceiling) carry false.
type skipRun struct {
	from, to int
	structOK bool
}

// prunePlan is the precomputed skip decision for one requirements set
// over one resolved process slice. A nil plan means "no pruning" —
// every accessor treats nil as the empty plan.
type prunePlan struct {
	procs  []tech.Process
	procOK []bool // procs[i].Validate() == nil
	nValid int
	total  int // sweepCount(req, procs)

	// Per-dimension run lengths: perRun covers red x ecc x proc (the
	// dimensions below the block), perIface covers banks x pageMult x
	// block x perRun, perOrg covers iface x perIface.
	perRun, perIface, perOrg int

	// Skip decisions, indexed by enumerated-organization position,
	// interface index (16<<i) and block index (sweepBlockBits order).
	// skipIface is the all-blocks conjunction of skipBlock, letting the
	// enumerator take one large jump instead of twelve small ones.
	skipOrg   []bool
	skipIface [][]bool
	skipBlock [][][]bool

	// runs is the flat, sorted, disjoint list of skipped Seq intervals
	// the bool tables induce — the single source tally and enumerated
	// derive from, so closed-form accounting cannot drift from the
	// enumerator's jumps.
	runs []skipRun
}

// sweepIfaces returns the interface-width table ({16..512} powers of
// two) the geometric range in sweepBatchesOver walks.
func sweepIfaces() []int {
	var out []int
	for v := sweepIfaceMin; v <= sweepIfaceMax; v *= 2 {
		out = append(out, v)
	}
	return out
}

// sweepBanks returns the bank-count table ({1..8} powers of two).
func sweepBanks() []int {
	var out []int
	for v := 1; v <= sweepBanksMax; v *= 2 {
		out = append(out, v)
	}
	return out
}

// eligibleOrgs returns the macro organizations the sweep enumerates for
// the requirements, in enumeration order.
func eligibleOrgs(req Requirements) []int {
	var out []int
	for _, m := range sweepMacroOrgs {
		if m > 0 && req.CapacityMbit%m == 0 {
			out = append(out, m)
		}
	}
	return out
}

// structBuildable reports whether a sweep point with the given
// per-macro capacity, block, bank count, page multiplier and interface
// width passes every structural check of edram.NewTemplate +
// Instantiate that does not depend on the process (process validity is
// tracked separately in procOK). Redundancy and ECC never affect
// buildability: spare counts are non-negative by construction and every
// ECC storage fraction is in [0,1).
func structBuildable(capPerMacro, block, banks, pageMult, iface int) bool {
	if capPerMacro <= 0 || capPerMacro > edram.ConceptMaxCapacityMbit {
		return false
	}
	capBits := capPerMacro * units.Mbit
	if capBits%block != 0 {
		return false
	}
	blocks := capBits / block
	if banks > blocks || blocks%banks != 0 {
		return false
	}
	cols := geom.MacroGeometry{BlockBits: block}.BlockColumns()
	return iface*pageMult <= cols*(blocks/banks)
}

// blockClock returns the sweep's operating clock for a building block
// (TargetClockMHz is always zero in the sweep, so the clock is the
// array maximum, a function of the block geometry alone).
func blockClock(block int) (float64, bool) {
	g := geom.MacroGeometry{BlockBits: block}
	org := timing.Organization{PageBits: g.BlockColumns(), RowsPerBank: g.BlockRows()}
	tm, err := timing.ArrayTiming(tech.PC100(), org)
	if err != nil {
		return 0, false
	}
	return timing.MaxClockMHz(tm), true
}

// cornerAreaMm2 returns the minimal candidate area of the (macros,
// iface, block) subspace for one process: the banks=1, no-redundancy,
// no-ECC corner, built through the real template path so the float
// summation order matches evaluation exactly. Every other candidate of
// the subspace only adds non-negative terms to that sum (and float
// addition of a non-negative term never rounds below the original
// sum), so the corner is a true lower bound. ok is false when the
// corner cannot be built (no area prune for the subspace then).
func cornerAreaMm2(capPerMacro, iface, block, macros int, proc *tech.Process) (float64, bool) {
	t, err := edram.NewTemplate(edram.Spec{
		CapacityMbit:  capPerMacro,
		InterfaceBits: iface,
		Banks:         1,
		BlockBits:     block,
		Redundancy:    edram.RedundancyNone,
		ECC:           reliab.ECCNone,
		Process:       proc,
	})
	if err != nil {
		return 0, false
	}
	return float64(macros) * t.TotalAreaMm2(), true
}

// costNeverFails reports whether cost.MacroDieCost is guaranteed to
// succeed for every buildable sweep point of the requirements. The only
// in-sweep failure mode is a die too large for the process wafer
// (DiesPerWafer < 1); maxSweepDieMm2 bounds the largest die the sweep
// can produce, and gross dies-per-wafer decreases monotonically up to
// wafer-diameter²/2 mm², so one check at the bound covers the space.
// When the guarantee cannot be established (pathological custom
// process), pruning is disabled entirely rather than risk a skipped
// subspace whose buildable tally would be wrong.
func costNeverFails(req Requirements, procs []tech.Process, procOK []bool) bool {
	banksTab := sweepBanks()
	ifaceTab := sweepIfaces()
	for pi := range procs {
		if !procOK[pi] {
			continue // never builds, never reaches the cost model
		}
		p := &procs[pi]
		maxDie := 0.0
		for _, macros := range eligibleOrgs(req) {
			capPer := req.CapacityMbit / macros
			if capPer <= 0 || capPer > edram.ConceptMaxCapacityMbit {
				continue
			}
			capBits := capPer * units.Mbit
			for _, block := range sweepBlockBits {
				if capBits%block != 0 {
					continue
				}
				blocks := capBits / block
				for _, banks := range banksTab {
					if banks > blocks || blocks%banks != 0 {
						continue
					}
					for _, iface := range ifaceTab {
						// Area is monotone in the spare counts and the ECC
						// storage fraction, so the high-redundancy SEC-DED
						// corner bounds both ECC modes and all four levels.
						g := geom.MacroGeometry{
							Process:       *p,
							BlockBits:     block,
							Blocks:        blocks,
							Banks:         banks,
							PageBits:      iface,
							InterfaceBits: iface,
							WithBIST:      true,
							ECCOverheadFrac: reliab.ECCSECDED.
								StorageOverhead(iface),
						}
						g.SpareRowsPerBlock, g.SpareColsPerBlock = edram.RedundancyHigh.Spares()
						a, err := g.Area()
						if err != nil {
							return false // cannot bound: disable pruning
						}
						if die := float64(macros) * a.TotalMm2; die > maxDie {
							maxDie = die
						}
					}
				}
			}
		}
		if maxDie == 0 {
			continue // nothing buildable for this process
		}
		d := p.WaferDiameterMm
		if maxDie > d*d/2 || geom.DiesPerWafer(*p, maxDie) < 1 {
			return false
		}
	}
	return true
}

// newPrunePlan derives the skip plan for the requirements over the
// resolved process slice. It returns nil when pruning cannot be applied
// soundly; the caller then runs the plain enumeration.
func newPrunePlan(req Requirements, procs []tech.Process) *prunePlan {
	if len(procs) == 0 {
		return nil
	}
	procOK := make([]bool, len(procs))
	nValid := 0
	for i := range procs {
		if procs[i].Validate() == nil {
			procOK[i] = true
			nValid++
		}
	}
	if !costNeverFails(req, procs, procOK) {
		return nil
	}

	P := len(procs)
	ifaceTab := sweepIfaces()
	banksTab := sweepBanks()
	nIface, nBanks := len(ifaceTab), len(banksTab)
	nPage, nBlock := len(sweepPageMults), len(sweepBlockBits)
	nRed, nECC := len(sweepRedLevels), len(sweepECCModes)

	p := &prunePlan{
		procs:    procs,
		procOK:   procOK,
		nValid:   nValid,
		total:    sweepCount(req, procs),
		perRun:   nRed * nECC * P,
		perIface: nBanks * nPage * nBlock * nRed * nECC * P,
	}
	p.perOrg = nIface * p.perIface
	orgs := eligibleOrgs(req)

	clocks := make([]float64, nBlock)
	clockOK := make([]bool, nBlock)
	for bi, block := range sweepBlockBits {
		clocks[bi], clockOK[bi] = blockClock(block)
	}

	p.skipOrg = make([]bool, len(orgs))
	p.skipIface = make([][]bool, len(orgs))
	p.skipBlock = make([][][]bool, len(orgs))
	for oi, macros := range orgs {
		capPer := req.CapacityMbit / macros
		p.skipOrg[oi] = capPer > edram.ConceptMaxCapacityMbit
		p.skipIface[oi] = make([]bool, nIface)
		p.skipBlock[oi] = make([][]bool, nIface)
		for ii, iface := range ifaceTab {
			p.skipBlock[oi][ii] = make([]bool, nBlock)
			if p.skipOrg[oi] {
				continue // the whole organization is skipped structurally
			}
			all := true
			for bi, block := range sweepBlockBits {
				skip := false
				if clockOK[bi] {
					if req.MinClockMHz > 0 && clocks[bi] < req.MinClockMHz {
						// Exactly the scoreCandidate clock check: the clock is
						// identical for every candidate with this block.
						skip = true
					}
					peak := float64(macros) * units.BandwidthGBps(iface, clocks[bi])
					if peak*bwPruneSlack < req.BandwidthGBps {
						skip = true
					}
				}
				if !skip && req.MaxAreaMm2 > 0 && nValid > 0 {
					minCorner, known := 0.0, false
					for pi := range procs {
						if !procOK[pi] {
							continue
						}
						a, ok := cornerAreaMm2(capPer, iface, block, macros, &procs[pi])
						if !ok {
							known = false
							break
						}
						if !known || a < minCorner {
							minCorner, known = a, true
						}
					}
					if known && minCorner > req.MaxAreaMm2 {
						skip = true
					}
				}
				p.skipBlock[oi][ii][bi] = skip
				if !skip {
					all = false
				}
			}
			p.skipIface[oi][ii] = all
		}
	}

	// Flatten the decision tables into the sorted skip-run list at
	// block-run granularity (one run per skipped red x ecc x proc
	// stretch), merging adjacent runs as they are emitted.
	emit := func(from, to int, structOK bool) {
		if n := len(p.runs); n > 0 && p.runs[n-1].to == from && p.runs[n-1].structOK == structOK {
			p.runs[n-1].to = to
			return
		}
		p.runs = append(p.runs, skipRun{from: from, to: to, structOK: structOK})
	}
	for oi, macros := range orgs {
		orgStart := oi * p.perOrg
		capPer := req.CapacityMbit / macros
		if p.skipOrg[oi] {
			emit(orgStart, orgStart+p.perOrg, false)
			continue
		}
		for ii, iface := range ifaceTab {
			ifaceStart := orgStart + ii*p.perIface
			for ki, banks := range banksTab {
				for gi, pageMult := range sweepPageMults {
					for bi, block := range sweepBlockBits {
						if !p.skipBlock[oi][ii][bi] {
							continue
						}
						runStart := ifaceStart + ((ki*nPage+gi)*nBlock+bi)*p.perRun
						emit(runStart, runStart+p.perRun,
							structBuildable(capPer, block, banks, pageMult, iface))
					}
				}
			}
		}
	}
	return p
}

// tally returns, in closed form, how many points of the window
// [from, to) a pruned sweep skips, and how many of those would have
// built (all of them provably infeasible — that is what justified the
// skip). A nil plan skips nothing.
func (p *prunePlan) tally(from, to int) (skipped, skippedBuildable int64) {
	if p == nil {
		return 0, 0
	}
	P := len(p.procs)
	for _, r := range p.runs {
		lo, hi := r.from, r.to
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if lo >= hi {
			continue
		}
		skipped += int64(hi - lo)
		if !r.structOK {
			continue
		}
		// Within a structurally buildable run the process index cycles
		// with period P (runs start on a process boundary), so the
		// buildable count is full cycles times the valid-process count
		// plus a walk over the remainder.
		r0 := lo - r.from
		n := hi - lo
		skippedBuildable += int64(n/P) * int64(p.nValid)
		for j := 0; j < n%P; j++ {
			if p.procOK[(r0+j)%P] {
				skippedBuildable++
			}
		}
	}
	return skipped, skippedBuildable
}

// enumerated returns the sorted, disjoint Seq intervals of [from, to)
// a pruned sweep actually enumerates — the complement of the skip runs.
// A nil plan enumerates the whole window.
func (p *prunePlan) enumerated(from, to int) []seqRange {
	if to > p.planTotal() {
		to = p.planTotal()
	}
	if from >= to {
		return nil
	}
	if p == nil {
		return []seqRange{{From: from, To: to}}
	}
	var out []seqRange
	cur := from
	for _, r := range p.runs {
		if r.to <= cur {
			continue
		}
		if r.from >= to {
			break
		}
		if r.from > cur {
			out = append(out, seqRange{From: cur, To: minSeqBound(r.from, to)})
		}
		if r.to > cur {
			cur = r.to
		}
		if cur >= to {
			return out
		}
	}
	if cur < to {
		out = append(out, seqRange{From: cur, To: to})
	}
	return out
}

// planTotal returns the sweep size the plan was built for; a nil plan
// imposes no bound.
func (p *prunePlan) planTotal() int {
	if p == nil {
		return maxSeq
	}
	return p.total
}

func minSeqBound(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// pointAt reconstructs the sweep point at one canonical sequence
// number — the inverse of the sweepBatchesOver enumeration, used by the
// delta path to materialize frontier members without re-running the
// sweep. The caller guarantees seq is in [0, sweepCount).
func pointAt(req Requirements, procs []tech.Process, seq int) Point {
	P := len(procs)
	orgs := eligibleOrgs(req)
	nPage, nBlock := len(sweepPageMults), len(sweepBlockBits)
	nRed, nECC := len(sweepRedLevels), len(sweepECCModes)
	perRun := nRed * nECC * P
	perIface := len(sweepBanks()) * nPage * nBlock * perRun
	perOrg := len(sweepIfaces()) * perIface

	idx := seq
	macros := orgs[idx/perOrg]
	idx %= perOrg
	iface := sweepIfaceMin << (idx / perIface)
	idx %= perIface
	banks := 1 << (idx / (nPage * nBlock * perRun))
	idx %= nPage * nBlock * perRun
	pageMult := sweepPageMults[idx/(nBlock*perRun)]
	idx %= nBlock * perRun
	block := sweepBlockBits[idx/perRun]
	idx %= perRun
	red := sweepRedLevels[idx/(nECC*P)]
	idx %= nECC * P
	ecc := sweepECCModes[idx/P]
	pi := idx % P

	return Point{
		Seq:    seq,
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
	}
}
