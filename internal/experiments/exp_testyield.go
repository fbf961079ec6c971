package experiments

import (
	"edram/internal/bist"
	"edram/internal/cost"
	"edram/internal/report"
	"edram/internal/tech"
	"edram/internal/units"
	"edram/internal/yield"
)

// E10TestCost regenerates the §6 test economics: rich DRAM test suites
// with retention waits are slow on external testers; on-chip BIST
// parallelism collapses test time and cost.
func E10TestCost() (Experiment, error) {
	flow := bist.DefaultFlow()
	t := report.New("E10: test time and cost per device",
		"Mbit", "path", "prefuse s", "postfuse s", "retention s", "total s", "cost $", "share of $4 die")
	var bistCost, extCost float64
	for _, mbit := range []int{4, 16, 64} {
		bits := int64(mbit) * units.Mbit
		paths := []bist.Tester{
			bist.MemoryTester(),
			bist.LogicTester(),
			bist.BISTOnTester(256, 7),
		}
		for _, tester := range paths {
			r, err := bist.Estimate(bits, tester, flow)
			if err != nil {
				return Experiment{}, err
			}
			t.AddRow(mbit, tester.Name, r.PreFuseS, r.PostFuseS, r.RetentionS,
				r.TotalS, r.CostUSD, bist.CostShare(r.CostUSD, 4))
			if mbit == 64 {
				switch tester.Name {
				case "bist":
					bistCost = r.CostUSD
				case "memory-tester":
					extCost = r.CostUSD
				}
			}
		}
	}
	return Experiment{
		ID:    "E10",
		Title: "Test economics (paper §6: test cost significant; BIST parallelism required)",
		Table: t,
		Findings: []Finding{
			{Name: "external-cost@64Mbit", Value: extCost, Unit: "USD"},
			{Name: "bist-cost@64Mbit", Value: bistCost, Unit: "USD"},
			{Name: "bist-saving", Value: units.Ratio(extCost, bistCost), Unit: "x"},
		},
	}, nil
}

// E11Yield regenerates the §5 redundancy argument: yield versus
// redundancy level across defect densities, Monte-Carlo over random
// defect maps with must-repair + greedy spare allocation.
func E11Yield() (Experiment, error) {
	t := report.New("E11: block yield vs redundancy level",
		"defects/block", "spares", "raw yield", "repaired yield", "gain")
	var rawAt12, stdAt12 float64
	for _, mean := range []float64{0.4, 1.2, 2.5} {
		for _, spares := range []int{0, 2, 4, 8} {
			mc := yield.MonteCarlo{
				Rows: 512, Cols: 512,
				MeanDefectsPerBlock: mean,
				SpareRows:           spares, SpareCols: spares,
				Mix: yield.DefaultMix(),
			}
			res, err := mc.Run(300, 17)
			if err != nil {
				return Experiment{}, err
			}
			t.AddRow(mean, spares, res.RawYield, res.RepairedYield,
				units.Ratio(res.RepairedYield, res.RawYield))
			//nolint:edramvet/floateq // anchor row: loop variable vs its own literal
			if mean == 1.2 && spares == 0 {
				rawAt12 = res.RawYield
			}
			//nolint:edramvet/floateq // anchor row: loop variable vs its own literal
			if mean == 1.2 && spares == 4 {
				stdAt12 = res.RepairedYield
			}
		}
	}
	return Experiment{
		ID:    "E11",
		Title: "Yield vs redundancy (paper §5: redundancy levels optimize module yield)",
		Table: t,
		Findings: []Finding{
			{Name: "raw-yield@1.2", Value: rawAt12, Unit: "frac"},
			{Name: "std-yield@1.2", Value: stdAt12, Unit: "frac"},
		},
	}, nil
}

// E12Process regenerates the §3 base-process trade-off: the same system
// (500 kgates of logic + 32 Mbit of memory) on a DRAM-based, a
// logic-based and a merged process.
func E12Process() (Experiment, error) {
	t := report.New("E12: base-process choice for 500 kgates + 32 Mbit",
		"process", "logic mm2", "macro mm2", "die mm2", "rel logic delay", "yield", "die $")
	const kgates = 500
	var dramArea, logicArea, mergedCost, dramCost float64
	for _, p := range tech.Processes() {
		macroMm2, err := macroAreaOn(p, 32)
		if err != nil {
			return Experiment{}, err
		}
		logicMm2 := logicAreaOn(p, kgates)
		dieCost, yieldEff, err := cost.MacroDieCost(&p, kgates, macroMm2, 0.8, 0.9)
		if err != nil {
			return Experiment{}, err
		}
		die := logicMm2 + macroMm2
		t.AddRow(p.Kind.String(), logicMm2, macroMm2, die, p.LogicDelayRel, yieldEff, dieCost)
		switch p.Kind {
		case tech.DRAMBased:
			dramArea = die
			dramCost = dieCost
		case tech.LogicBased:
			logicArea = die
		case tech.Merged:
			mergedCost = dieCost
		}
	}
	return Experiment{
		ID:    "E12",
		Title: "Base process (paper §3: density vs logic speed vs cost)",
		Table: t,
		Findings: []Finding{
			{Name: "logic-vs-dram-area", Value: units.Ratio(logicArea, dramArea), Unit: "x"},
			{Name: "merged-vs-dram-cost", Value: units.Ratio(mergedCost, dramCost), Unit: "x"},
		},
	}, nil
}
