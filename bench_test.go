package edram_test

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	edrampkg "edram"
	"edram/internal/bist"
	"edram/internal/cache"
	"edram/internal/core"
	"edram/internal/dram"
	"edram/internal/edram"
	"edram/internal/experiments"
	"edram/internal/service"
	"edram/internal/tech"
)

// Each BenchmarkE* regenerates one experiment of the paper (see
// DESIGN.md §3 for the claim index and EXPERIMENTS.md for the recorded
// results). The headline finding of each experiment is attached to the
// benchmark output as a custom metric.

func benchExperiment(b *testing.B, run func() (experiments.Experiment, error), metric string) {
	b.Helper()
	var e experiments.Experiment
	var err error
	for i := 0; i < b.N; i++ {
		e, err = run()
		if err != nil {
			b.Fatal(err)
		}
	}
	v, err := e.Finding(metric)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, metric)
}

func BenchmarkE1IOPower(b *testing.B) {
	benchExperiment(b, experiments.E1IOPower, "power-ratio@4GBps")
}

func BenchmarkE2FillFrequency(b *testing.B) {
	benchExperiment(b, experiments.E2FillFrequency, "fill-ratio@4Mbit")
}

func BenchmarkE3Granularity(b *testing.B) {
	benchExperiment(b, experiments.E3Granularity, "waste@256bit")
}

func BenchmarkE4WireDelay(b *testing.B) {
	benchExperiment(b, experiments.E4WireDelay, "delay-ratio-80mm-vs-5mm")
}

func BenchmarkE5MPEG2(b *testing.B) {
	benchExperiment(b, experiments.E5MPEG2, "frame-decode-ms")
}

func BenchmarkE6MemoryGap(b *testing.B) {
	benchExperiment(b, experiments.E6MemoryGap, "iram-latency-ratio")
}

func BenchmarkE7SiemensConcept(b *testing.B) {
	benchExperiment(b, experiments.E7SiemensConcept, "efficiency@16Mbit")
}

func BenchmarkE8Sustained(b *testing.B) {
	benchExperiment(b, experiments.E8Sustained, "recovery")
}

func BenchmarkE9FIFODepth(b *testing.B) {
	benchExperiment(b, experiments.E9FIFODepth, "fifo-round-robin")
}

func BenchmarkE10TestCost(b *testing.B) {
	benchExperiment(b, experiments.E10TestCost, "bist-saving")
}

func BenchmarkE11Yield(b *testing.B) {
	benchExperiment(b, experiments.E11Yield, "std-yield@1.2")
}

func BenchmarkE12Process(b *testing.B) {
	benchExperiment(b, experiments.E12Process, "logic-vs-dram-area")
}

// Micro-benchmarks of the substrates, for performance tracking.

func BenchmarkDeviceAccess(b *testing.B) {
	d, err := dram.New(dram.Config{
		Banks: 4, RowsPerBank: 2048, PageBits: 2048, DataBits: 64,
		Timing: tech.PC100(),
	})
	if err != nil {
		b.Fatal(err)
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := d.Access(now, i%4, (i/7)%2048, i%2 == 0)
		if err != nil {
			b.Fatal(err)
		}
		now = res.StartNs
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 2, HitNs: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(int64(i*64)%(1<<20), i%4 == 0)
	}
}

func BenchmarkMarchCMinus64Kbit(b *testing.B) {
	ru := bist.Runner{CycleNs: 10, ParallelBits: 256}
	alg := bist.MarchCMinus()
	for i := 0; i < b.N; i++ {
		a, err := dram.NewArray(256, 256)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ru.RunMarch(a, alg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMacroBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := edram.Build(edram.Spec{CapacityMbit: 64, InterfaceBits: 256}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDesignSpaceExplore(b *testing.B) {
	req := core.Requirements{CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8}
	for i := 0; i < b.N; i++ {
		if _, err := core.Explore(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreParallel measures the sweep's evaluation throughput
// (built points/sec) at 1, 4 and GOMAXPROCS workers.
func BenchmarkExploreParallel(b *testing.B) {
	req := core.Requirements{CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8}
	counts := []int{1, 4}
	if max := runtime.GOMAXPROCS(0); max != 1 && max != 4 {
		counts = append(counts, max)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var points int64
			for i := 0; i < b.N; i++ {
				res, err := core.SweepContext(context.Background(), req, core.WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				points += res.Built
			}
			b.ReportMetric(float64(points)/b.Elapsed().Seconds(), "points/sec")
		})
	}
}

// BenchmarkExplorePruned measures the constraint-pruned sweep: "open"
// has no prunable constraint (the pruning planner's overhead must be
// invisible), "constrained" lets the planner skip whole Seq subspaces
// analytically.
func BenchmarkExplorePruned(b *testing.B) {
	for _, tc := range []struct {
		name string
		req  core.Requirements
	}{
		{"open", core.Requirements{CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8}},
		{"constrained", core.Requirements{CapacityMbit: 16, BandwidthGBps: 2, HitRate: 0.8, DefectsPerCm2: 0.8, MaxAreaMm2: 25, MaxPowerMW: 900}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SweepContext(context.Background(), tc.req, core.WithPruning())
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Frontier) == 0 {
					b.Fatal("empty frontier")
				}
			}
		})
	}
}

// BenchmarkDeltaExplore is the PR's headline comparison: "cold" is a
// full sweep of the tweaked requirements, "warm" re-serves the same
// tweak from a retained sweep of the unconstrained base through
// DeltaExplore. The warm/cold ns/op ratio is the incremental path's
// speedup for the tweak-one-constraint pattern.
func BenchmarkDeltaExplore(b *testing.B) {
	base := core.Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, DefectsPerCm2: 0.8}
	tweaked := base
	tweaked.MaxAreaMm2 = 25

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.SweepContext(context.Background(), tweaked, core.WithPruning())
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Frontier) == 0 {
				b.Fatal("empty frontier")
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		st, err := core.NewDeltaState(base)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Record(context.Background()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var reused int64
		for i := 0; i < b.N; i++ {
			res, err := core.DeltaExplore(context.Background(), st, tweaked, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Frontier) == 0 {
				b.Fatal("empty frontier")
			}
			reused += res.Reused
		}
		b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
	})
}

func BenchmarkE13SRAMPartition(b *testing.B) {
	benchExperiment(b, experiments.E13SRAMPartition, "crossover-mbit")
}

func BenchmarkE14QualityGrades(b *testing.B) {
	benchExperiment(b, experiments.E14QualityGrades, "grade-gain@3")
}

func BenchmarkE15ThermalFeedback(b *testing.B) {
	benchExperiment(b, experiments.E15ThermalFeedback, "retention-collapse")
}

func BenchmarkA1PagePolicy(b *testing.B) {
	benchExperiment(b, experiments.A1PagePolicy, "stream-open-over-closed")
}

func BenchmarkE16Markets(b *testing.B) {
	benchExperiment(b, experiments.E16Markets, "net-switch-cost-ratio")
}

func BenchmarkA2Reorder(b *testing.B) {
	benchExperiment(b, experiments.A2Reorder, "window16-over-inorder")
}

func BenchmarkE17Generations(b *testing.B) {
	benchExperiment(b, experiments.E17Generations, "bandwidth-growth")
}

func BenchmarkE18Standby(b *testing.B) {
	benchExperiment(b, experiments.E18Standby, "standby-ratio@16Mbit")
}

func BenchmarkA3ModelVsSim(b *testing.B) {
	benchExperiment(b, experiments.A3ModelVsSim, "worst-agreement")
}

func BenchmarkA4RefreshTax(b *testing.B) {
	benchExperiment(b, experiments.A4RefreshTax, "refresh-tax@3W")
}

func BenchmarkA5Prefetch(b *testing.B) {
	benchExperiment(b, experiments.A5Prefetch, "iram-advantage")
}

func BenchmarkE19SustainedHeadToHead(b *testing.B) {
	benchExperiment(b, experiments.E19SustainedHeadToHead, "sustained-advantage")
}

func BenchmarkE20Feasibility(b *testing.B) {
	benchExperiment(b, experiments.E20Feasibility, "die-128mbit-500k")
}

func BenchmarkE21Volume(b *testing.B) {
	benchExperiment(b, experiments.E21Volume, "graphics-breakeven")
}

func BenchmarkE22ScanConverter(b *testing.B) {
	benchExperiment(b, experiments.E22ScanConverter, "realtime-margin")
}

// BenchmarkServiceExplore measures the HTTP service layer end-to-end
// over an in-process server. cold issues a structurally new request
// every iteration (a distinct hit_rate: every tier misses and the
// request pays the full sweep through the shared worker pool); delta
// varies only bandwidth_gbps after one base sweep, so every iteration
// is served by the delta tier; warm replays one request
// (canonical-key cache hit). The concurrent variants fan the same load
// across parallel clients, where cold requests split the worker pool
// and identical in-flight requests coalesce. The per-endpoint budget
// and admission queue are sized to the clients × GOMAXPROCS
// goroutines RunParallel starts, so no request is shed.
func BenchmarkServiceExplore(b *testing.B) {
	const base = `{"capacity_mbit":16,"bandwidth_gbps":1,"hit_rate":0.5}`
	bodies := map[string]func(i int64) string{
		"cold": func(i int64) string {
			return fmt.Sprintf(`{"capacity_mbit":16,"bandwidth_gbps":1,"hit_rate":%.9f}`, 0.5+float64(i)*1e-9)
		},
		"delta": func(i int64) string {
			return fmt.Sprintf(`{"capacity_mbit":16,"bandwidth_gbps":%.9f,"hit_rate":0.5}`, 1+float64(i)*1e-6)
		},
		"warm": func(int64) string { return base },
	}
	for _, mode := range []string{"cold", "delta", "warm"} {
		for _, clients := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode, clients), func(b *testing.B) {
				goroutines := clients * runtime.GOMAXPROCS(0)
				srv := httptest.NewServer(edrampkg.NewService(edrampkg.ServiceConfig{
					CacheEntries:          1 << 16,
					DefaultEndpointBudget: goroutines,
					MaxQueueDepth:         goroutines,
				}))
				defer srv.Close()
				client := srv.Client()
				post := func(body string) error {
					resp, err := client.Post(srv.URL+"/v1/explore", "application/json", strings.NewReader(body))
					if err != nil {
						return err
					}
					defer resp.Body.Close()
					if _, err := io.Copy(io.Discard, resp.Body); err != nil {
						return err
					}
					if resp.StatusCode != 200 {
						return fmt.Errorf("status %d", resp.StatusCode)
					}
					return nil
				}
				// Every mode posts the base request before the timer
				// starts, so the connection and the process's first-request
				// setup stay out of the measured operations (at -benchtime
				// 1x they would be most of it); delta and warm start from
				// its sweep, and cold's timed requests differ from it in
				// hit rate, so each is still a miss of every tier.
				if err := post(base); err != nil {
					b.Fatal(err)
				}
				body := bodies[mode]
				var seq atomic.Int64
				b.ResetTimer()
				b.SetParallelism(clients) // clients × GOMAXPROCS goroutines
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := post(body(seq.Add(1))); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// simulateMix is a fixed, seeded mix of /v1/simulate requests in the
// shape of perfbench's controller-sim workload: every policy on two
// macros, open and closed page, reorder windows 0 to 8, and 2 to 4
// clients of every stream kind, reads beside writes.
func simulateMix() []service.SimulateRequest {
	rng := rand.New(rand.NewSource(1))
	specs := []edram.Spec{
		{CapacityMbit: 4, InterfaceBits: 16, Banks: 4},
		{CapacityMbit: 16, InterfaceBits: 64, Banks: 4},
	}
	policies := []string{"round-robin", "fixed-priority", "oldest-first", "open-page-first", "deadline"}
	kinds := []string{"sequential", "strided", "random", "alternating"}
	var mix []service.SimulateRequest
	for si, spec := range specs {
		capB := int64(spec.CapacityMbit) << 17
		for pi, policy := range policies {
			req := service.SimulateRequest{Spec: spec, Options: service.SimulateOptions{
				Policy:        policy,
				ClosedPage:    (si+pi)%2 == 1,
				ReorderWindow: []int{0, 2, 4, 8}[rng.Intn(4)],
			}}
			for i, n := 0, 2+rng.Intn(3); i < n; i++ {
				c := service.ClientSpec{
					Name:     fmt.Sprintf("c%d", i),
					Kind:     kinds[rng.Intn(len(kinds))],
					RateGBps: float64(5+rng.Intn(46)) / 100,
					Count:    300 + rng.Intn(1200),
					StartB:   rng.Int63n(capB/2) &^ 63,
					StrideB:  int64(64) << rng.Intn(7),
					LimitB:   capB,
					Write:    rng.Intn(10) < 3,
				}
				if rng.Intn(4) == 0 {
					c.Bits = 2 * spec.InterfaceBits
				}
				switch c.Kind {
				case "random":
					c.WindowB = int64(64<<10) << rng.Intn(4)
					c.Seed = 1 + rng.Int63n(1<<30)
				case "alternating":
					c.LimitB, c.Write = 0, false
				}
				if policy == "deadline" {
					c.LatencyBudgetNs = float64(200 + 100*rng.Intn(20))
				}
				req.Clients = append(req.Clients, c)
			}
			mix = append(mix, req)
		}
	}
	return mix
}

// BenchmarkSimulate measures the controller layer as /v1/simulate runs
// it: service.BuildSimulate (the event-driven controller) plus Encode,
// once over each request of simulateMix per operation. served/op is
// the number of requests the controller served.
func BenchmarkSimulate(b *testing.B) {
	mix := simulateMix()
	served := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		served = 0
		for _, req := range mix {
			resp, err := service.BuildSimulate(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := service.Encode(resp); err != nil {
				b.Fatal(err)
			}
			for _, c := range resp.Clients {
				served += c.Requests
			}
		}
	}
	b.ReportMetric(float64(served), "served/op")
}
