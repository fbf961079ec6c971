package experiments

import (
	"fmt"
	"math/rand"

	"edram/internal/bist"
	"edram/internal/cost"
	"edram/internal/dram"
	"edram/internal/edram"
	"edram/internal/geom"
	"edram/internal/mapping"
	"edram/internal/power"
	"edram/internal/report"
	"edram/internal/sched"
	"edram/internal/sdram"
	"edram/internal/tech"
	"edram/internal/traffic"
	"edram/internal/units"
	"edram/internal/yield"
)

// marketScenario describes one of the paper's §2 eDRAM markets.
type marketScenario struct {
	Name string
	// Memory requirement.
	CapacityMbit int
	WidthBits    int
	// LogicKGates of the companion controller/accelerator logic.
	LogicKGates float64
	// Utilization of the memory interface at the operating point.
	Utilization float64
}

// marketScenarios returns the three §2 markets the paper details:
// graphics (frame storage, bandwidth-hungry), disk/printer controllers
// (cost-driven, modest memory), and network switches (the high end:
// up to 128 Mbit and 512-bit interfaces).
func marketScenarios() []marketScenario {
	return []marketScenario{
		{Name: "graphics", CapacityMbit: 16, WidthBits: 128, LogicKGates: 400, Utilization: 0.6},
		{Name: "hdd-controller", CapacityMbit: 20, WidthBits: 64, LogicKGates: 250, Utilization: 0.3},
		{Name: "net-switch", CapacityMbit: 128, WidthBits: 512, LogicKGates: 600, Utilization: 0.7},
	}
}

// marketCompare evaluates one scenario both ways.
type marketCompare struct {
	Scenario      marketScenario
	DiscreteChips int
	DiscreteUSD   float64
	EmbeddedUSD   float64
	CostRatio     float64
	DiscretePwrMW float64
	EmbeddedPwrMW float64
	PowerRatio    float64
	DiscretePins  int
}

func evalMarket(sc marketScenario) (marketCompare, error) {
	e := tech.DefaultElectrical()
	logicProc := tech.Logic024()
	dramProc := tech.Siemens024()

	// --- Discrete build: logic die on the logic process + commodity
	// memory system on the board.
	sys, err := sdram.BestSystem(sdram.Requirement{CapacityMbit: sc.CapacityMbit, WidthBits: sc.WidthBits})
	if err != nil {
		return marketCompare{}, err
	}
	logicPads := sys.BusBits() + 80 // memory bus + control/host pins
	logicDie := geom.Die{LogicKGates: sc.LogicKGates, SignalPins: logicPads, Process: logicProc}
	logicRep := logicDie.Compose()
	logicYield := yield.NegBinomialYield(0.8, logicRep.TotalMm2, 2.5)
	logicCost, err := cost.DieCostUSD(&logicProc, logicRep.TotalMm2, 0, logicYield)
	if err != nil {
		return marketCompare{}, err
	}
	discTest, err := bist.Estimate(int64(sys.InstalledMbit())*units.Mbit, bist.MemoryTester(), bist.DefaultFlow())
	if err != nil {
		return marketCompare{}, err
	}
	discreteUSD := logicCost + cost.PackageCostUSD(logicPads) +
		sys.PriceUSD() + discTest.CostUSD +
		cost.BoardCostUSDPerCm2*(float64(sys.TotalChips())*2.0+6)
	discretePwr := sys.InterfacePowerMW(e, 3.3, sc.Utilization)

	// --- Embedded build: one hybrid die on the eDRAM process.
	m, err := edram.Build(edram.Spec{
		CapacityMbit:  sc.CapacityMbit,
		InterfaceBits: sc.WidthBits,
		Redundancy:    edram.RedundancyStd,
	})
	if err != nil {
		return marketCompare{}, err
	}
	embPadsRing := geom.PadRingAreaMm2(80) // host/control only; the memory bus is internal
	hybridCost, _, err := cost.MacroDieCost(&dramProc, sc.LogicKGates, m.Area.TotalMm2+embPadsRing, 0.8, 0.9)
	if err != nil {
		return marketCompare{}, err
	}
	embTest, err := bist.Estimate(int64(sc.CapacityMbit)*units.Mbit,
		bist.BISTOnTester(m.Geometry.InterfaceBits, m.Timing.TCKns), bist.DefaultFlow())
	if err != nil {
		return marketCompare{}, err
	}
	const embPads = 80
	embeddedUSD := hybridCost + cost.PackageCostUSD(embPads) + embTest.CostUSD +
		cost.BoardCostUSDPerCm2*6
	embPwr := power.OnChipBus(e, m.Geometry.InterfaceBits, m.ClockMHz*sc.Utilization, dramProc.VddDRAMV).PowerMW

	return marketCompare{
		Scenario:      sc,
		DiscreteChips: sys.TotalChips() + 1,
		DiscreteUSD:   discreteUSD,
		EmbeddedUSD:   embeddedUSD,
		CostRatio:     units.Ratio(discreteUSD, embeddedUSD),
		DiscretePwrMW: discretePwr,
		EmbeddedPwrMW: embPwr,
		PowerRatio:    units.Ratio(discretePwr, embPwr),
		DiscretePins:  sys.SignalPins() + logicPads,
	}, nil
}

// E16Markets evaluates the paper's §2 markets end to end: system cost,
// interface power, chip and pin counts for the discrete and the
// embedded build of each product.
func E16Markets() (Experiment, error) {
	t := report.New("E16: §2 market scenarios, discrete vs embedded",
		"market", "chips", "pins", "discrete $", "embedded $", "cost x",
		"discrete mW", "embedded mW", "power x")
	findings := []Finding{}
	for _, sc := range marketScenarios() {
		mc, err := evalMarket(sc)
		if err != nil {
			return Experiment{}, fmt.Errorf("%s: %w", sc.Name, err)
		}
		t.AddRow(sc.Name, mc.DiscreteChips, mc.DiscretePins,
			mc.DiscreteUSD, mc.EmbeddedUSD, mc.CostRatio,
			mc.DiscretePwrMW, mc.EmbeddedPwrMW, mc.PowerRatio)
		findings = append(findings,
			Finding{Name: sc.Name + "-cost-ratio", Value: mc.CostRatio, Unit: "x"},
			Finding{Name: sc.Name + "-power-ratio", Value: mc.PowerRatio, Unit: "x"},
		)
	}
	return Experiment{
		ID:       "E16",
		Title:    "Market scenarios (paper §2: graphics, controllers, switches)",
		Table:    t,
		Findings: findings,
	}, nil
}

// E19SustainedHeadToHead runs the same multi-client workload on the
// discrete system and the embedded macro that both satisfy a
// 16-Mbit/128-bit requirement: the embedded side wins on clock (its
// small blocks cycle faster), on row cycle, and on exact-fit capacity.
func E19SustainedHeadToHead() (Experiment, error) {
	const reqMbit, reqWidth = 16, 128
	mkClients := func(seed int64) []sched.Client {
		return []sched.Client{
			{Name: "stream", Gen: &traffic.Sequential{ClientID: 0, Bits: reqWidth, RateGB: 2, Count: 1200}},
			{Name: "stride", Gen: &traffic.Strided{ClientID: 1, StartB: 4 << 20, StrideB: 512, LimitB: 4 << 20, Bits: reqWidth, RateGB: 2, Count: 1200}},
			{Name: "random", Gen: &traffic.Random{ClientID: 2, StartB: 8 << 20, WindowB: 4 << 20, Bits: reqWidth, RateGB: 2, Count: 1200, Rng: rand.New(rand.NewSource(seed))}},
		}
	}
	run := func(cfg dram.Config) (sched.Result, error) {
		gm := mapping.Geometry{Banks: cfg.Banks, RowsBank: cfg.RowsPerBank, PageBytes: cfg.PageBits / 8}
		mp, err := mapping.NewBankInterleaved(gm)
		if err != nil {
			return sched.Result{}, err
		}
		return sched.RunWithOptions(cfg, mp, sched.Options{Policy: sched.OpenPageFirst}, mkClients(77))
	}

	sys, err := sdram.BestSystem(sdram.Requirement{CapacityMbit: reqMbit, WidthBits: reqWidth})
	if err != nil {
		return Experiment{}, err
	}
	dres, err := run(sys.DeviceConfig())
	if err != nil {
		return Experiment{}, err
	}
	m, err := edram.Build(edram.Spec{CapacityMbit: reqMbit, InterfaceBits: reqWidth})
	if err != nil {
		return Experiment{}, err
	}
	eres, err := run(m.DeviceConfig())
	if err != nil {
		return Experiment{}, err
	}

	t := report.New("E19: same workload, discrete system vs embedded macro",
		"system", "installed Mbit", "peak GB/s", "sustained GB/s", "hit rate")
	t.AddRow("discrete "+sys.Part.Name, sys.InstalledMbit(), dres.PeakGBps, dres.SustainedGBps, dres.HitRate)
	t.AddRow("embedded macro", m.CapacityMbit(), eres.PeakGBps, eres.SustainedGBps, eres.HitRate)
	return Experiment{
		ID:    "E19",
		Title: "Sustained head-to-head (embedded wins on clock and row cycle)",
		Table: t,
		Findings: []Finding{
			{Name: "sustained-advantage", Value: units.Ratio(eres.SustainedGBps, dres.SustainedGBps), Unit: "x"},
			{Name: "capacity-waste-avoided", Value: units.Ratio(float64(sys.InstalledMbit()), float64(m.CapacityMbit())), Unit: "x"},
		},
	}, nil
}

// E20Feasibility regenerates the paper's opening claim (§1): "In
// quarter-micron technology, chips with up to 128 Mbit of DRAM and
// 500 kgates of logic, or 64 Mbit of DRAM and 1 Mgates of logic are
// feasible." Both corner points must fit the same late-90s die-size
// envelope on the DRAM-based process, and the memory-for-logic exchange
// rate between them is the §3 "trade logic area for memory area".
func E20Feasibility() (Experiment, error) {
	const dieBudgetMm2 = 200 // a large but manufacturable 0.24 µm die
	proc := tech.Siemens024()
	t := report.New("E20: quarter-micron feasibility corner points",
		"config", "macro mm2", "logic mm2", "pads mm2", "die mm2", "fits 200 mm2")
	type corner struct {
		name   string
		mbit   int
		kgates float64
	}
	corners := []corner{
		{"128 Mbit + 500 kgates", 128, 500},
		{"64 Mbit + 1 Mgates", 64, 1000},
	}
	dies := make([]float64, len(corners))
	for i, c := range corners {
		m, err := edram.Build(edram.Spec{CapacityMbit: c.mbit, InterfaceBits: 256})
		if err != nil {
			return Experiment{}, err
		}
		logicMm2 := geom.LogicAreaMm2(&proc, c.kgates)
		pads := geom.PadRingAreaMm2(200)
		die := m.Area.TotalMm2 + logicMm2 + pads
		dies[i] = die
		t.AddRow(c.name, m.Area.TotalMm2, logicMm2, pads, die, die <= dieBudgetMm2)
	}
	// Exchange rate between the corners: trading 500 kgates of logic
	// buys 64 Mbit of macro — the §3 "trade logic area for memory area".
	exchange := float64(128-64) / (1000 - 500)
	return Experiment{
		ID:    "E20",
		Title: "Feasibility corners (paper §1: 128 Mbit + 500 kgates or 64 Mbit + 1 Mgates)",
		Table: t,
		Findings: []Finding{
			{Name: "die-128mbit-500k", Value: dies[0], Unit: "mm2"},
			{Name: "die-64mbit-1M", Value: dies[1], Unit: "mm2"},
			{Name: "mbit-per-kgate", Value: exchange, Unit: "Mbit/kgate"},
		},
	}, nil
}

// E21Volume quantifies the §2 rule of thumb "the product volume and
// product lifetime are usually high": embedding carries the eDRAM NRE
// (mask set + library/porting effort, §1), so it only pays above a
// break-even volume — computed here for each §2 market from the E16
// bill-of-materials.
func E21Volume() (Experiment, error) {
	nre := cost.DefaultNRE()
	t := report.New("E21: break-even volume per market",
		"market", "discrete $/unit", "embedded $/unit", "break-even units",
		"$/unit @10k", "$/unit @1M")
	findings := []Finding{}
	for _, sc := range marketScenarios() {
		mc, err := evalMarket(sc)
		if err != nil {
			return Experiment{}, err
		}
		be := cost.BreakEvenVolume(nre, mc.DiscreteUSD, mc.EmbeddedUSD)
		t.AddRow(sc.Name, mc.DiscreteUSD, mc.EmbeddedUSD, be,
			cost.VolumeCostUSD(nre, mc.EmbeddedUSD, 10_000),
			cost.VolumeCostUSD(nre, mc.EmbeddedUSD, 1_000_000))
		findings = append(findings, Finding{Name: sc.Name + "-breakeven", Value: be, Unit: "units"})
	}
	return Experiment{
		ID:       "E21",
		Title:    "Break-even volume (paper §2: volumes are usually high)",
		Table:    t,
		Findings: findings,
	}, nil
}
