// Constraint-pruned enumeration for the design-space sweep. Several
// requirement constraints are monotone in a single sweep dimension: the
// interface clock depends only on the building block, peak (and with it
// sustained) bandwidth is maximal in the clock and the interface width,
// and the macro area is minimal at the banks=1 / no-redundancy / no-ECC
// corner of a subspace. A prunePlan evaluates those bounds once per
// (macro-organization, interface, block) subspace and records the Seq
// runs whose buildable points are all provably infeasible; the sweep
// enumerates only the ranges between them. Seq numbering stays
// absolute, so ranged sweeps, job partitions and their checkpoints
// remain byte-compatible with the unpruned enumeration (the empty
// plan); tally accounts the skipped points in closed form so
// ExploreStats totals stay exact.
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
// over one explore's space. The zero plan skips nothing: it is the
// plan of an unpruned explore.
type prunePlan struct {
	procOK []bool // procs[i].Validate() == nil
	nValid int

	// runs is the flat, sorted, disjoint list of skipped Seq intervals —
	// the single source both the enumerator (through enumerated) and
	// the closed-form accounting (tally) derive from.
	runs []skipRun
}

// structBuildable reports whether a sweep point's spec passes every
// structural check of edram.NewTemplate + Instantiate that does not
// depend on the process (process validity is tracked separately in
// procOK). Redundancy and ECC never affect buildability: spare counts
// are non-negative by construction and every ECC storage fraction is
// in [0,1).
func structBuildable(spec edram.Spec) bool {
	if spec.CapacityMbit <= 0 || spec.CapacityMbit > edram.ConceptMaxCapacityMbit {
		return false
	}
	capBits := spec.CapacityMbit * units.Mbit
	if capBits%spec.BlockBits != 0 {
		return false
	}
	blocks := capBits / spec.BlockBits
	if spec.Banks > blocks || blocks%spec.Banks != 0 {
		return false
	}
	g := geom.MacroGeometry{BlockBits: spec.BlockBits, Blocks: blocks, Banks: spec.Banks}
	return spec.PageBits <= g.MaxPageBits()
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
	var t edram.Template
	if t.Reset(edram.Spec{
		CapacityMbit:  capPerMacro,
		InterfaceBits: iface,
		Banks:         1,
		BlockBits:     block,
		Redundancy:    edram.RedundancyNone,
		ECC:           reliab.ECCNone,
		Process:       proc,
	}) != nil {
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
func costNeverFails(req Requirements, sp *space, procOK []bool) bool {
	for pi := range sp.procs {
		if !procOK[pi] {
			continue // never builds, never reaches the cost model
		}
		p := &sp.procs[pi]
		maxDie := 0.0
		for _, macros := range sp.orgs {
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
				for _, banks := range sweepBankCounts {
					if banks > blocks || blocks%banks != 0 {
						continue
					}
					for _, iface := range sweepIfaceBits {
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
		if maxDie > d*d/2 || geom.DiesPerWafer(p, maxDie) < 1 {
			return false
		}
	}
	return true
}

// newPrunePlan derives the skip plan for the requirements over the
// explore's space. It returns the empty plan when no skip can be
// proven sound.
func newPrunePlan(req Requirements, sp *space) *prunePlan {
	p := &prunePlan{procOK: make([]bool, len(sp.procs))}
	for i := range sp.procs {
		if sp.procs[i].Validate() == nil {
			p.procOK[i] = true
			p.nValid++
		}
	}
	if !costNeverFails(req, sp, p.procOK) {
		return &prunePlan{}
	}

	// The sweep's operating clock of each building block: TargetClockMHz
	// is always zero in the sweep, so it is the array maximum, a
	// function of the block alone.
	clocks := make([]float64, len(sweepBlockBits))
	for bi, block := range sweepBlockBits {
		clocks[bi] = edram.BlockClockMHz(block)
	}
	// infeasible reports whether every buildable point of one
	// (organization, interface, block) subspace fails a constraint.
	infeasible := func(macros, iface, bi int) bool {
		if req.MinClockMHz > 0 && clocks[bi] < req.MinClockMHz {
			// Exactly the scoreCandidate clock check: the clock is
			// identical for every candidate with this block.
			return true
		}
		peak := float64(macros) * units.BandwidthGBps(iface, clocks[bi])
		if peak*bwPruneSlack < req.BandwidthGBps {
			return true
		}
		if req.MaxAreaMm2 <= 0 || p.nValid == 0 {
			return false
		}
		minCorner, known := 0.0, false
		for pi := range sp.procs {
			if !p.procOK[pi] {
				continue
			}
			a, ok := cornerAreaMm2(req.CapacityMbit/macros, iface, sweepBlockBits[bi], macros, &sp.procs[pi])
			if !ok {
				return false
			}
			if !known || a < minCorner {
				minCorner, known = a, true
			}
		}
		return known && minCorner > req.MaxAreaMm2
	}
	// skip holds the skipped subspaces by (organization, interface,
	// block) digit. An organization over the concept ceiling is skipped
	// whole; its points are structurally unbuildable.
	skip := map[[3]int]bool{}
	for oi, macros := range sp.orgs {
		over := req.CapacityMbit/macros > edram.ConceptMaxCapacityMbit
		for ii, iface := range sweepIfaceBits {
			for bi := range sweepBlockBits {
				if over || infeasible(macros, iface, bi) {
					skip[[3]int{oi, ii, bi}] = true
				}
			}
		}
	}

	// Emit one run per skipped block stretch (redundancy × ECC ×
	// process), merging adjacent runs of equal buildability.
	run := sp.stride[digitBlock]
	for from := 0; from < sp.total; from += run {
		d := sp.digits(from)
		if !skip[[3]int{d[digitOrg], d[digitIface], d[digitBlock]}] {
			continue
		}
		structOK := structBuildable(sp.at(from, &d).Spec)
		if n := len(p.runs); n > 0 && p.runs[n-1].to == from && p.runs[n-1].structOK == structOK {
			p.runs[n-1].to = from + run
			continue
		}
		p.runs = append(p.runs, skipRun{from: from, to: from + run, structOK: structOK})
	}
	return p
}

// tally returns, in closed form, how many points of the window
// [from, to) a pruned sweep skips, and how many of those would have
// built (all of them provably infeasible — that is what justified the
// skip).
func (p *prunePlan) tally(from, to int) (skipped, skippedBuildable int64) {
	P := len(p.procOK)
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
// the sweep enumerates — the complement of the skip runs. The caller
// clamps the window to the space.
func (p *prunePlan) enumerated(from, to int) []seqRange {
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
			out = append(out, seqRange{From: cur, To: r.from})
		}
		if cur = r.to; cur >= to {
			return out
		}
	}
	if cur < to {
		out = append(out, seqRange{From: cur, To: to})
	}
	return out
}
