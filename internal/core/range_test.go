package core

import (
	"context"
	"sort"
	"strings"
	"testing"
)

// collectRange drains a ranged explore into a Seq-sorted key list.
func collectRange(t *testing.T, r Requirements, from, to int) []string {
	t.Helper()
	ch, err := ExploreContext(context.Background(), r, WithWorkers(2), WithSeqRange(from, to))
	if err != nil {
		t.Fatal(err)
	}
	var out []Candidate
	for c := range ch {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	keys := make([]string, len(out))
	for i, c := range out {
		keys[i] = candidateKey(c)
	}
	return keys
}

// TestSweepCountMatchesEnumeration pins SweepCount as the exclusive
// Seq upper bound of the actual sweep.
func TestSweepCountMatchesEnumeration(t *testing.T) {
	for _, r := range []Requirements{req(), {CapacityMbit: 15, BandwidthGBps: 1, HitRate: 0.5}} {
		want := SweepCount(r)
		n, maxSeqSeen := 0, -1
		for _, p := range drainSweep(t, r) {
			n++
			if p.Seq > maxSeqSeen {
				maxSeqSeen = p.Seq
			}
		}
		if n != want || maxSeqSeen != want-1 {
			t.Errorf("capacity %d: SweepCount=%d, enumerated %d points, max Seq %d",
				r.CapacityMbit, want, n, maxSeqSeen)
		}
	}
}

// TestSeqRangePartitionExactness is the checkpointing invariant: the
// union of disjoint Seq ranges covering the space is candidate-for-
// candidate identical to the unrestricted run, and an accumulated
// frontier over the chunks matches the one-shot frontier.
func TestSeqRangePartitionExactness(t *testing.T) {
	r := req()
	total := SweepCount(r)
	if total == 0 {
		t.Fatal("empty sweep")
	}
	full := collectRange(t, r, 0, total)

	// Uneven chunk size so boundaries cross batch boundaries.
	chunk := 501
	var chunked []string
	front := NewFrontier()
	for from := 0; from < total; from += chunk {
		to := from + chunk
		if to > total {
			to = total
		}
		ch, err := ExploreContext(context.Background(), r, WithWorkers(2), WithSeqRange(from, to))
		if err != nil {
			t.Fatal(err)
		}
		var part []Candidate
		for c := range ch {
			part = append(part, c)
		}
		sort.Slice(part, func(i, j int) bool { return part[i].Seq < part[j].Seq })
		for _, c := range part {
			if c.Seq < from || c.Seq >= to {
				t.Fatalf("range [%d,%d) leaked Seq %d", from, to, c.Seq)
			}
			chunked = append(chunked, candidateKey(c))
			front.Add(c)
		}
	}
	if strings.Join(chunked, "\n") != strings.Join(full, "\n") {
		t.Fatalf("chunked union differs from full run: %d vs %d candidates", len(chunked), len(full))
	}

	fullFront := NewFrontier()
	ch, err := ExploreContext(context.Background(), r, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for c := range ch {
		fullFront.Add(c)
	}
	a, b := front.Candidates(), fullFront.Candidates()
	if len(a) != len(b) {
		t.Fatalf("chunk-accumulated front size %d != one-shot %d", len(a), len(b))
	}
	for i := range a {
		if candidateKey(a[i]) != candidateKey(b[i]) {
			t.Errorf("front member %d differs:\nchunked:  %s\none-shot: %s", i, candidateKey(a[i]), candidateKey(b[i]))
		}
	}
	if front.Pruned() != fullFront.Pruned() {
		t.Errorf("pruned count: chunked %d, one-shot %d", front.Pruned(), fullFront.Pruned())
	}
}

// TestSeqRangeValidation: an empty range is an option error. The
// accepted open-bound sweep is cancelled and drained, so its workers
// exit before the package's leak gate counts goroutines.
func TestSeqRangeValidation(t *testing.T) {
	if _, err := ExploreContext(context.Background(), req(), WithSeqRange(10, 10)); err == nil {
		t.Error("empty seq range accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := ExploreContext(ctx, req(), WithSeqRange(-5, -1))
	if err != nil {
		t.Fatalf("open-bound range rejected: %v", err)
	}
	cancel()
	for range ch {
	}
}
