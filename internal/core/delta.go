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
// spinning one explore engine per fragment (a re-swept covered point
// writes back the record it already had, so over-sweeping is a pure
// time trade).
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
	records  evalStore
	coverage []seqRange // sorted, disjoint
	sealed   bool
}

// evalStore holds a state's evaluation records densely, indexed by Seq.
// A macro's area, die cost, sustained bandwidth and clock do not depend
// on its page length (edram.Template), so they are stored once per
// projection (space.proj); power is stored per Seq, and a bit per Seq
// says whether the point was built. Sweeps write records in place, so
// the store needs no sorting, and rewriting a point writes the
// identical record. The store says nothing about which Seqs were
// swept: the state's coverage does, and every read stays inside it.
type evalStore struct {
	space *space
	proj  []projEval
	power []float64
	built []uint64
}

// projEval is the page-independent part of an evaluation record.
type projEval struct {
	area, cost, sustained, clock float64
}

// newEvalStore returns an empty store for every Seq of sp.
func newEvalStore(sp *space) evalStore {
	return evalStore{
		space: sp,
		proj:  make([]projEval, sp.total/sp.radix[digitPage]),
		power: make([]float64, sp.total),
		built: make([]uint64, (sp.total+63)/64),
	}
}

// put stores one built point's record.
func (st *evalStore) put(ev *pointEval) {
	st.proj[st.space.proj(ev.seq)] = projEval{ev.area, ev.cost, ev.sustained, ev.clock}
	st.power[ev.seq] = ev.power
	st.built[ev.seq/64] |= 1 << (ev.seq % 64)
}

// has reports whether a record was stored for seq.
func (st *evalStore) has(seq int) bool { return st.built[seq/64]&(1<<(seq%64)) != 0 }

// at is the stored record of a built seq.
func (st *evalStore) at(seq int) pointEval {
	p := &st.proj[st.space.proj(seq)]
	return pointEval{seq, p.area, st.power[seq], p.cost, p.sustained, p.clock}
}

// count is the number of stored records inside rs.
func (st *evalStore) count(rs []seqRange) int64 {
	var n int64
	for _, r := range rs {
		for seq := r.From; seq < r.To; seq++ {
			if st.has(seq) {
				n++
			}
		}
	}
	return n
}

// NewDeltaState prepares recording for one full pruned explore of req:
// Record runs it and seals the state. A caller that runs the sweep
// itself passes Observe as the sweep's observer (WithObserver), which
// hands it every built candidate after the fold, and calls Seal once
// the run completed; either way the state then covers exactly the
// intervals a pruned full sweep enumerates.
func NewDeltaState(req Requirements) (*DeltaState, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sp := newSpace(req, resolveProcesses(req))
	return &DeltaState{
		req:     req,
		key:     req.StructuralKey(),
		space:   sp,
		records: newEvalStore(sp),
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
// full sweep of the state's requirements under opts, with the fold
// writing every built evaluation record straight into the state's
// store, and seals the state once the sweep completed. It returns the
// sweep's fold, as SweepContext would with WithPruning.
func (s *DeltaState) Record(ctx context.Context, opts ...ExploreOption) (SweepResult, error) {
	res, err := sweepRecorded(ctx, s.req, &s.records, append(opts[:len(opts):len(opts)], WithPruning())...)
	if err != nil {
		return SweepResult{}, err
	}
	s.Seal()
	return res, nil
}

// Observe records one built candidate of the state's own full explore.
// It must see every built candidate of a pruned full sweep of the
// state's requirements before Seal; as a sweep's observer it sees them
// in increasing Seq, after the fold, though any order records the same
// store.
func (s *DeltaState) Observe(c Candidate) {
	s.records.put(&pointEval{c.Seq, c.AreaMm2, c.PowerMW, c.CostUSD, c.SustainedGBps, c.Macro.ClockMHz})
}

// Seal marks the recording complete: the state now covers the
// enumerated intervals of a pruned full sweep of its requirements.
// Call it only after the explore ran to completion. Records observed
// outside those intervals (a recording fed from an unpruned run) stay
// in the store unread: every read stays inside the coverage, which is
// what keeps a later re-sweep of a missing interval from counting a
// point twice.
func (s *DeltaState) Seal() {
	s.coverage = newPrunePlan(s.req, s.space).enumerated(0, s.space.total)
	s.sealed = true
}

// Evals returns the number of retained point evaluations: the built
// points inside the coverage.
func (s *DeltaState) Evals() int { return int(s.records.count(s.coverage)) }

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
// evaluated, which are swept fresh into the state's store), then
// re-scores every retained evaluation under the new constraint values
// and rebuilds the Pareto front from scratch. The frontier, counters
// and closest miss are byte-identical to a cold full pruned sweep of
// newReq.
//
// The state is mutated (coverage and evaluations grow monotonically);
// callers serialize access per state. A call that fails leaves the
// state's answers unchanged: a cancelled gap sweep may already have
// written records, but only identical ones or ones outside the
// coverage, which nothing reads until a later sweep rewrites them.
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
	exposed := subtractRanges(needed, s.coverage)
	missing := coalesceRanges(exposed, deltaGapTolerance)

	// Sweep the intervals no prior run covered, straight into the
	// store. The sweep runs under newReq, but the recorded metrics
	// depend only on the (shared) structural fields, so the records
	// are the ones a sweep of the state's own requirements writes.
	var swept int64
	for _, r := range missing {
		swept += int64(r.To - r.From)
		if _, err := sweepRecorded(ctx, newReq, &s.records, WithWorkers(workers), WithSeqRange(r.From, r.To)); err != nil {
			return nil, err // incomplete sweep: the coverage is unchanged
		}
	}
	if len(missing) > 0 {
		s.coverage = unionRanges(s.coverage, missing)
	}

	// Fold every retained evaluation inside the new enumerated region
	// under the new constraint values, as the cold sweep's collector
	// would: the front is insertion-order independent, so the fold's
	// counters, front and closest miss are the cold run's.
	skipped, skippedBuildable := newPlan.tally(0, s.space.total)
	f := newFold()
	f.enumerated = int64(s.space.total) - skipped
	for _, r := range needed {
		for seq := r.From; seq < r.To; seq++ {
			if s.records.has(seq) {
				ev := s.records.at(seq)
				f.add(&ev, violations(&ev, &newReq))
			}
		}
	}
	// The result materializes a few dozen candidates, spread over the
	// whole space; candidate builds each one's template afresh.
	res := f.result(skipped, skippedBuildable, newEvalMemo(newReq, s.space))
	return &DeltaResult{SweepResult: res, Swept: swept, Reused: f.built - s.records.count(exposed)}, nil
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
