// Package shard cuts an explore's absolute-Seq range into contiguous
// partitions and folds the per-partition results back into a result
// byte-identical to the undivided sweep. Explore jobs sweep their
// partitions in order and checkpoint the fold after each one.
//
// Exactness, not approximation: the sweep enumerates candidates by an
// absolute sequence number, so contiguous [From,To) partitions cover
// the space without overlap, and dominance is a strict partial order,
// so merging per-partition fronts through a fresh Frontier yields
// exactly the global front regardless of partition boundaries or
// merge order. The associativity test in internal/service pins this
// down byte-for-byte.
package shard

import "edram/internal/core"

// Partition is one contiguous absolute-Seq slice [From, To) of the
// sweep.
type Partition struct {
	From int
	To   int
}

// Plan splits [from, to) into at most parts near-equal contiguous
// partitions (fewer when the span is smaller than parts; nil when the
// span or parts is empty).
func Plan(from, to, parts int) []Partition {
	span := to - from
	if span <= 0 || parts <= 0 {
		return nil
	}
	if parts > span {
		parts = span
	}
	base, extra := span/parts, span%parts
	out := make([]Partition, 0, parts)
	next := from
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, Partition{From: next, To: next + size})
		next += size
	}
	return out
}

// Result is the outcome of sweeping one partition (or, after Merge,
// the union of partitions): the exact enumeration counters plus the
// partition-local Pareto front.
type Result struct {
	Enumerated int64
	Built      int64
	Infeasible int64
	Frontier   []core.Candidate
}

// Merge folds partition results into the union result: counters sum
// and the partial fronts merge through a fresh Frontier. Dominance is
// a strict partial order, so the merged front is exactly the front the
// undivided sweep produces, independent of partition boundaries and
// merge order — the associativity the property tests pin.
func Merge(results ...Result) Result {
	var out Result
	front := core.NewFrontier()
	for i := range results {
		r := &results[i]
		out.Enumerated += r.Enumerated
		out.Built += r.Built
		out.Infeasible += r.Infeasible
		for _, c := range r.Frontier {
			front.Add(c)
		}
	}
	out.Frontier = front.Candidates()
	return out
}
