package core_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"edram/internal/core"
	"edram/internal/scenario"
)

// TestPrunedParityScenarioCorpus sweeps every requirement set the
// example scenario corpus compiles to, pruned and unpruned, and pins
// the parity invariant on real workloads rather than synthetic
// constraint matrices: the pruned stream is the unpruned stream minus
// proven-infeasible points, and the folded totals match.
func TestPrunedParityScenarioCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus double-sweep")
	}
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	levels := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		sc, err := scenario.Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		comp, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", e.Name(), err)
		}
		for _, lvl := range comp.Levels {
			if lvl.Kind != "edram" {
				continue
			}
			levels++
			req := lvl.Requirements
			t.Run(e.Name()+"/"+lvl.Name, func(t *testing.T) {
				plain, ps, pr := corpusCollect(t, req)
				pruned, qs, qr := corpusCollect(t, req, core.WithPruning())
				bySeq := make(map[int]core.Candidate, len(plain))
				for _, c := range plain {
					bySeq[c.Seq] = c
				}
				for _, c := range pruned {
					want, ok := bySeq[c.Seq]
					if !ok {
						t.Fatalf("pruned emitted Seq %d absent unpruned", c.Seq)
					}
					if !reflect.DeepEqual(want, c) {
						t.Fatalf("Seq %d differs:\nunpruned %+v\npruned   %+v", c.Seq, want, c)
					}
					delete(bySeq, c.Seq)
				}
				for seq, c := range bySeq {
					if c.Feasible {
						t.Fatalf("pruning removed feasible Seq %d", seq)
					}
				}
				if int64(len(plain)-len(pruned)) != qs.SkippedBuildable {
					t.Fatalf("removed %d != SkippedBuildable %d",
						len(plain)-len(pruned), qs.SkippedBuildable)
				}
				// The closest miss depends on what was enumerated: each
				// run's is the CloserMiss pick over its own stream, and
				// the rest of the folds must be equal.
				for _, run := range []struct {
					cands []core.Candidate
					res   *core.SweepResult
				}{{plain, &pr}, {pruned, &qr}} {
					var want core.Candidate
					for i := range run.cands {
						if c := &run.cands[i]; !c.Feasible && core.CloserMiss(c, &want) {
							want = *c
						}
					}
					if !reflect.DeepEqual(run.res.Nearest, want) {
						t.Fatalf("fold's closest miss Seq %d, stream's Seq %d", run.res.Nearest.Seq, want.Seq)
					}
					run.res.Nearest = core.Candidate{}
				}
				if !reflect.DeepEqual(pr, qr) || qs.Pruned != ps.Pruned || qs.FrontSize != ps.FrontSize {
					t.Fatalf("folds diverge:\nunpruned %+v\npruned   %+v", ps, qs)
				}
			})
		}
	}
	if levels == 0 {
		t.Fatalf("corpus compiled to no edram levels — test is vacuous")
	}
}

func corpusCollect(t *testing.T, req core.Requirements, opts ...core.ExploreOption) ([]core.Candidate, core.ExploreStats, core.SweepResult) {
	t.Helper()
	var final core.ExploreStats
	var out []core.Candidate
	opts = append(opts,
		core.WithProgress(func(s core.ExploreStats) {
			if s.Done {
				final = s
			}
		}),
		core.WithObserver(func(c core.Candidate) { out = append(out, c) }))
	res, err := core.SweepContext(context.Background(), req, opts...)
	if err != nil {
		t.Fatalf("SweepContext: %v", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if !final.Done {
		t.Fatalf("no final snapshot")
	}
	return out, final, res
}
