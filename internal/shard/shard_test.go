package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"edram/internal/core"
	"edram/internal/testleak"
)

func TestMain(m *testing.M) { testleak.Check(m) }

func TestPlanCoversRangeExactly(t *testing.T) {
	cases := []struct{ from, to, parts int }{
		{0, 2304, 1}, {0, 2304, 3}, {0, 2304, 7}, {5, 17, 4},
		{0, 3, 8}, // parts clamp to the span
		{100, 101, 1},
	}
	for _, tc := range cases {
		parts := Plan(tc.from, tc.to, tc.parts)
		if len(parts) == 0 {
			t.Fatalf("Plan(%d,%d,%d) empty", tc.from, tc.to, tc.parts)
		}
		next := tc.from
		for i, p := range parts {
			if p.From != next || p.To <= p.From {
				t.Fatalf("Plan(%d,%d,%d)[%d] = %+v, want contiguous from %d",
					tc.from, tc.to, tc.parts, i, p, next)
			}
			next = p.To
		}
		if next != tc.to {
			t.Fatalf("Plan(%d,%d,%d) ends at %d", tc.from, tc.to, tc.parts, next)
		}
		// Near-equal: sizes differ by at most one.
		min, max := tc.to-tc.from, 0
		for _, p := range parts {
			if s := p.To - p.From; s < min {
				min = s
			} else if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Fatalf("Plan(%d,%d,%d) imbalanced: sizes span [%d,%d]", tc.from, tc.to, tc.parts, min, max)
		}
	}
	if p := Plan(10, 10, 4); p != nil {
		t.Fatalf("Plan over empty span = %v, want nil", p)
	}
	if p := Plan(0, 10, 0); p != nil {
		t.Fatalf("Plan with zero parts = %v, want nil", p)
	}
}

// synthetic builds a feasible candidate whose metrics place it on a
// synthetic trade-off curve; i and the flip flag control whether it
// lands on the front (area·power product constant) or strictly inside.
func synthetic(seq int, dominated bool) core.Candidate {
	c := core.Candidate{
		Seq:           seq,
		AreaMm2:       1 + float64(seq%13),
		PowerMW:       100 - float64(seq%13),
		SustainedGBps: 1,
		Feasible:      true,
	}
	c.CostUSD = c.AreaMm2
	c.CostPerMbitUSD = c.AreaMm2
	if dominated {
		c.AreaMm2 += 5
		c.PowerMW += 5
		c.CostUSD += 5
		c.CostPerMbitUSD += 5
	}
	return c
}

func TestMergeMatchesSingleFrontier(t *testing.T) {
	// Build one population, compute its front in one pass, then merge
	// per-partition fronts over random boundaries and compare.
	var pop []core.Candidate
	for seq := 0; seq < 400; seq++ {
		pop = append(pop, synthetic(seq, seq%3 == 0))
	}
	whole := core.NewFrontier()
	for _, c := range pop {
		whole.Add(c)
	}
	want := whole.Candidates()

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nparts := 1 + rng.Intn(9)
		parts := Plan(0, len(pop), nparts)
		var prs []Result
		for _, p := range parts {
			local := core.NewFrontier()
			for _, c := range pop[p.From:p.To] {
				local.Add(c)
			}
			prs = append(prs, Result{Frontier: local.Candidates()})
		}
		// Merge order must not matter either.
		rng.Shuffle(len(prs), func(i, j int) { prs[i], prs[j] = prs[j], prs[i] })
		got := Merge(prs...).Frontier
		if len(got) != len(want) {
			t.Fatalf("trial %d (%d parts): merged front has %d members, want %d", trial, nparts, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("trial %d: merged front member %d is seq %d, want %d", trial, i, got[i].Seq, want[i].Seq)
			}
		}
	}
}

func TestMergeSumsCounters(t *testing.T) {
	var prs []Result
	for i := 0; i < 3; i++ {
		prs = append(prs, Result{Enumerated: 10, Built: 8, Infeasible: int64(i)})
	}
	got := Merge(prs...)
	want := fmt.Sprintf("%d/%d/%d", 30, 24, 3)
	if g := fmt.Sprintf("%d/%d/%d", got.Enumerated, got.Built, got.Infeasible); g != want {
		t.Fatalf("Merge counters = %s, want %s", g, want)
	}
}
