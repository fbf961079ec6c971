// Incremental delta re-exploration. The service's common warm pattern
// is "tweak one constraint and re-explore": the requirement set keeps
// its structure (capacity, hit rate, defect density, processes) and
// only constraint values move. Those four constraints never change a
// candidate's metrics — they only re-classify feasibility — so a prior
// run's per-point evaluations can be reused wholesale: re-filter the
// retained evaluations under the new constraint values, sweep only the
// Seq intervals the previous (pruned) run never enumerated and the new
// constraints now need, and merge through a fresh Frontier. The result
// is byte-identical to a cold full sweep of the new requirements,
// pinned the same way partition merge parity is (see delta_test.go and
// the service parity tests).

package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
)

// deltaGapTolerance bounds missing-interval fragmentation: gaps of
// already-covered points up to this long are re-swept rather than
// spinning one explore engine per fragment (covered duplicates are
// dropped on arrival, so over-sweeping is a pure time trade).
const deltaGapTolerance = 1024

// DeltaState retains what a completed explore learned about one
// requirement structure: the evaluations of every built point inside
// the covered Seq intervals. It is keyed by Requirements.StructuralKey;
// DeltaExplore serves any requirement set with the same structure from
// it, extending coverage as loosened constraints expose new intervals.
//
// A DeltaState is not safe for concurrent use — the service layer
// serializes access per state.
type DeltaState struct {
	req      Requirements
	key      string
	space    *space
	evals    []pointEval // sorted by seq once sealed
	coverage []seqRange  // sorted, disjoint
	sealed   bool
}

// NewDeltaState prepares recording for one full pruned explore of req:
// Record runs it and seals the state. A caller that runs the sweep
// itself feeds every built candidate to Observe (WithObserver) and
// calls Seal once the run completed; either way the state then covers
// exactly the intervals a pruned full sweep enumerates.
func NewDeltaState(req Requirements) (*DeltaState, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &DeltaState{
		req:   req,
		key:   req.StructuralKey(),
		space: newSpace(req, resolveProcesses(req)),
	}, nil
}

// StructuralKey returns the requirement-structure fingerprint the state
// serves.
func (s *DeltaState) StructuralKey() string { return s.key }

// Eligible reports whether newReq can be served by delta
// re-exploration from this state: the structural key must match (only
// the four pure constraint values may differ). Any structural change —
// capacity, hit rate, defect density, process set or order — alters
// candidate metrics or the enumeration itself and forces a cold sweep.
func (s *DeltaState) Eligible(newReq Requirements) bool {
	return s.sealed && newReq.StructuralKey() == s.key
}

// Record is the whole recording of a fresh state: it runs the pruned
// full sweep of the state's requirements under opts, keeps every built
// evaluation record straight from the fold, and seals the state once
// the sweep completed. It returns the sweep's fold, as SweepContext
// would with WithPruning.
func (s *DeltaState) Record(ctx context.Context, opts ...ExploreOption) (SweepResult, error) {
	res, evals, err := sweepRecorded(ctx, s.req, append(opts[:len(opts):len(opts)], WithPruning())...)
	if err != nil {
		return SweepResult{}, err
	}
	s.evals = evals
	s.Seal()
	return res, nil
}

// Observe records one built candidate of the state's own full explore.
// It must see every built candidate of a pruned full sweep of the
// state's requirements, in any order, before Seal.
func (s *DeltaState) Observe(c Candidate) {
	s.evals = append(s.evals, pointEval{c.Seq, c.AreaMm2, c.PowerMW, c.CostUSD, c.SustainedGBps, c.Macro.ClockMHz})
}

// Seal marks the recording complete: the state now covers the
// enumerated intervals of a pruned full sweep of its requirements.
// Call it only after the explore ran to completion.
func (s *DeltaState) Seal() {
	s.coverage = newPrunePlan(s.req, s.space).enumerated(0, s.space.total)
	sort.Slice(s.evals, func(i, j int) bool { return s.evals[i].seq < s.evals[j].seq })
	// Drop evaluations outside the coverage intervals (a recording fed
	// from an unpruned run observes points inside skipped subspaces):
	// evals ⊆ coverage is the invariant that keeps a later re-sweep of
	// a missing interval from double-counting.
	keep := s.evals[:0]
	for _, ev := range s.evals {
		if rangesContain(s.coverage, ev.seq) {
			keep = append(keep, ev)
		}
	}
	s.evals = keep
	s.sealed = true
}

// Evals returns the number of retained point evaluations.
func (s *DeltaState) Evals() int { return len(s.evals) }

// DeltaResult is the outcome of a delta re-exploration: the fold of a
// cold pruned sweep of the new requirements, byte-identical to it with
// the front fully materialized, plus how it was obtained.
type DeltaResult struct {
	SweepResult
	// Swept counts points enumerated fresh by this call; Reused counts
	// retained built evaluations that served the result instead of
	// being re-computed.
	Swept, Reused int64
}

// DeltaExplore re-explores newReq from the retained state: it
// classifies the constraint changes implicitly through the new prune
// plan (tightened constraints shrink the enumerated region — pure
// re-filtering; loosened ones expose intervals the prior runs never
// evaluated, which are swept fresh and folded into the state), then
// re-scores every retained evaluation under the new constraint values
// and rebuilds the Pareto front from scratch. The frontier, counters
// and closest miss are byte-identical to a cold full pruned sweep of
// newReq.
//
// The state is mutated (coverage and evaluations grow monotonically);
// callers serialize access per state.
func DeltaExplore(ctx context.Context, s *DeltaState, newReq Requirements, workers int) (*DeltaResult, error) {
	if err := newReq.Validate(); err != nil {
		return nil, err
	}
	if !s.Eligible(newReq) {
		return nil, fmt.Errorf("core: requirements not delta-eligible for state %s", s.key)
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	newPlan := newPrunePlan(newReq, s.space)
	needed := newPlan.enumerated(0, s.space.total)
	missing := coalesceRanges(subtractRanges(needed, s.coverage), deltaGapTolerance)

	// Sweep the intervals no prior run covered. The sweep runs under
	// newReq, but the recorded metrics depend only on the (shared)
	// structural fields, so the evaluations join the retained ones
	// seamlessly. Already-covered points inside a coalesced gap are
	// dropped.
	var swept, freshBuilt int64
	var fresh []pointEval
	for _, r := range missing {
		swept += int64(r.To - r.From)
		_, evals, err := sweepRecorded(ctx, newReq, WithWorkers(workers), WithSeqRange(r.From, r.To))
		if err != nil {
			return nil, err // incomplete sweep: leave the state untouched
		}
		for _, ev := range evals {
			if rangesContain(s.coverage, ev.seq) {
				continue
			}
			if rangesContain(needed, ev.seq) {
				freshBuilt++
			}
			fresh = append(fresh, ev)
		}
	}
	if len(fresh) > 0 {
		s.evals = append(s.evals, fresh...)
		sort.Slice(s.evals, func(i, j int) bool { return s.evals[i].seq < s.evals[j].seq })
	}
	if len(missing) > 0 {
		s.coverage = unionRanges(s.coverage, missing)
	}

	// Fold every retained evaluation inside the new enumerated region
	// under the new constraint values, as the cold sweep's collector
	// would: the front is insertion-order independent, so the fold's
	// counters, front and closest miss are the cold run's.
	skipped, skippedBuildable := newPlan.tally(0, s.space.total)
	f := fold{enumerated: int64(s.space.total) - skipped}
	ri := 0
	for i := range s.evals {
		ev := &s.evals[i]
		for ri < len(needed) && needed[ri].To <= ev.seq {
			ri++
		}
		if ri >= len(needed) || ev.seq < needed[ri].From {
			continue // outside the new plan's enumerated region
		}
		f.add(ev, violations(ev, &newReq))
	}
	// The result materializes a few dozen candidates, spread over the
	// whole space; candidate builds each one's template afresh.
	res := f.result(skipped, skippedBuildable, newEvalMemo(newReq, s.space))
	return &DeltaResult{SweepResult: res, Swept: swept, Reused: f.built - freshBuilt}, nil
}

// rangesContain reports whether a sorted disjoint range list contains
// seq.
func rangesContain(rs []seqRange, seq int) bool {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case rs[mid].To <= seq:
			lo = mid + 1
		case rs[mid].From > seq:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// subtractRanges returns a \ b for sorted disjoint range lists.
func subtractRanges(a, b []seqRange) []seqRange {
	var out []seqRange
	bi := 0
	for _, r := range a {
		cur := r.From
		for bi < len(b) && b[bi].To <= cur {
			bi++
		}
		j := bi
		for cur < r.To {
			if j >= len(b) || b[j].From >= r.To {
				out = append(out, seqRange{From: cur, To: r.To})
				break
			}
			if b[j].From > cur {
				out = append(out, seqRange{From: cur, To: b[j].From})
			}
			if b[j].To > cur {
				cur = b[j].To
			}
			j++
		}
	}
	return out
}

// unionRanges merges two sorted disjoint range lists.
func unionRanges(a, b []seqRange) []seqRange {
	all := append(append([]seqRange(nil), a...), b...)
	sort.Slice(all, func(i, j int) bool { return all[i].From < all[j].From })
	var out []seqRange
	for _, r := range all {
		if n := len(out); n > 0 && r.From <= out[n-1].To {
			if r.To > out[n-1].To {
				out[n-1].To = r.To
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// coalesceRanges merges ranges separated by gaps of at most tol points.
func coalesceRanges(rs []seqRange, tol int) []seqRange {
	var out []seqRange
	for _, r := range rs {
		if n := len(out); n > 0 && r.From-out[n-1].To <= tol {
			if r.To > out[n-1].To {
				out[n-1].To = r.To
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
