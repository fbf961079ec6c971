package geom

import (
	"testing"
	"testing/quick"

	"edram/internal/tech"
	"edram/internal/units"
)

func macro(blocks, banks, blockBits, iface, page int) MacroGeometry {
	return MacroGeometry{
		Process:       tech.Siemens024(),
		BlockBits:     blockBits,
		Blocks:        blocks,
		Banks:         banks,
		PageBits:      page,
		InterfaceBits: iface,
		WithBIST:      true,
	}
}

func TestBlockShape(t *testing.T) {
	g := macro(16, 4, Block1M, 256, 2048)
	if g.BlockColumns() != 1024 || g.BlockRows() != 1024 {
		t.Errorf("1-Mbit block should be 1024x1024, got %dx%d", g.BlockRows(), g.BlockColumns())
	}
	g.BlockBits = Block256K
	if g.BlockColumns() != 512 || g.BlockRows() != 512 {
		t.Errorf("256-Kbit block should be 512x512, got %dx%d", g.BlockRows(), g.BlockColumns())
	}
}

func TestPaperAreaEfficiency(t *testing.T) {
	// Paper §5: "Large memory modules, from 8-16 Mbit upwards,
	// achieving an area efficiency of about 1 Mbit/mm²."
	for _, mbit := range []int{8, 16, 32, 64, 128} {
		g := macro(mbit, 4, Block1M, 256, 2048)
		a, err := g.Area()
		if err != nil {
			t.Fatalf("%d Mbit: %v", mbit, err)
		}
		if a.EfficiencyMbitPerMm2 < 0.85 || a.EfficiencyMbitPerMm2 > 1.6 {
			t.Errorf("%d Mbit macro efficiency %.2f Mbit/mm², want ~1", mbit, a.EfficiencyMbitPerMm2)
		}
	}
}

func TestSmallMacroInefficient(t *testing.T) {
	small := macro(1, 1, Block1M, 16, 256)
	large := macro(16, 4, Block1M, 256, 2048)
	sa, err := small.Area()
	if err != nil {
		t.Fatal(err)
	}
	la, err := large.Area()
	if err != nil {
		t.Fatal(err)
	}
	if sa.EfficiencyMbitPerMm2 >= la.EfficiencyMbitPerMm2 {
		t.Fatalf("1-Mbit macro (%.2f) must be less area-efficient than 16-Mbit (%.2f)",
			sa.EfficiencyMbitPerMm2, la.EfficiencyMbitPerMm2)
	}
	if sa.EfficiencyMbitPerMm2 > 0.7 {
		t.Errorf("tiny macro efficiency %.2f suspiciously high", sa.EfficiencyMbitPerMm2)
	}
}

func TestSmallBlocksLessDense(t *testing.T) {
	// Same 8-Mbit capacity from 1-Mbit vs 256-Kbit blocks: the small
	// blocks pay more per-block overhead (the flexibility/density trade).
	big := macro(8, 4, Block1M, 256, 2048)
	small := macro(32, 4, Block256K, 256, 2048)
	ba, err := big.Area()
	if err != nil {
		t.Fatal(err)
	}
	sa, err := small.Area()
	if err != nil {
		t.Fatal(err)
	}
	if sa.TotalMm2 <= ba.TotalMm2 {
		t.Fatalf("256-Kbit-block macro (%.2f mm²) must be larger than 1-Mbit-block macro (%.2f mm²)",
			sa.TotalMm2, ba.TotalMm2)
	}
}

func TestProcessDensityOrdering(t *testing.T) {
	// The same macro on the logic-based process must be much larger
	// (paper §3: logic base => poor memory density).
	mk := func(p tech.Process) float64 {
		g := macro(16, 4, Block1M, 256, 2048)
		g.Process = p
		a, err := g.Area()
		if err != nil {
			t.Fatal(err)
		}
		return a.TotalMm2
	}
	dram := mk(tech.Siemens024())
	logic := mk(tech.Logic024())
	merged := mk(tech.Merged024())
	if !(dram < merged && merged < logic) {
		t.Fatalf("area ordering violated: dram %.1f merged %.1f logic %.1f", dram, merged, logic)
	}
	if logic/dram < 1.8 {
		t.Errorf("logic-based macro should be ~2-3x larger, got %.2fx", logic/dram)
	}
}

func TestRedundancyCostsArea(t *testing.T) {
	g := macro(16, 4, Block1M, 256, 2048)
	base, err := g.Area()
	if err != nil {
		t.Fatal(err)
	}
	g.SpareRowsPerBlock, g.SpareColsPerBlock = 4, 4
	red, err := g.Area()
	if err != nil {
		t.Fatal(err)
	}
	if red.TotalMm2 <= base.TotalMm2 || red.RedundancyMm2 <= 0 {
		t.Fatal("redundancy must cost area")
	}
	// But only a small fraction (spares are a handful of rows/cols).
	if red.RedundancyMm2/red.TotalMm2 > 0.05 {
		t.Errorf("redundancy share %.1f%% too large", 100*red.RedundancyMm2/red.TotalMm2)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*MacroGeometry)
	}{
		{"bad block size", func(g *MacroGeometry) { g.BlockBits = 512 * units.Kbit }},
		{"zero blocks", func(g *MacroGeometry) { g.Blocks = 0 }},
		{"banks exceed blocks", func(g *MacroGeometry) { g.Banks = 99 }},
		{"banks not dividing blocks", func(g *MacroGeometry) { g.Blocks = 6; g.Banks = 4 }},
		{"interface too narrow", func(g *MacroGeometry) { g.InterfaceBits = 8 }},
		{"interface too wide", func(g *MacroGeometry) { g.InterfaceBits = 1024 }},
		{"interface not pow2", func(g *MacroGeometry) { g.InterfaceBits = 48 }},
		{"page below interface", func(g *MacroGeometry) { g.PageBits = 128 }},
		{"page beyond bank span", func(g *MacroGeometry) { g.PageBits = 1 << 20 }},
		{"negative spares", func(g *MacroGeometry) { g.SpareRowsPerBlock = -1 }},
		{"bad process", func(g *MacroGeometry) { g.Process.FeatureUm = 0 }},
	}
	for _, c := range cases {
		g := macro(16, 4, Block1M, 256, 2048)
		c.mut(&g)
		if g.Validate() == nil {
			t.Errorf("%s: validation should fail", c.name)
		}
		if _, err := g.Area(); err == nil {
			t.Errorf("%s: Area should propagate validation failure", c.name)
		}
	}
}

func TestAreaBreakdownSums(t *testing.T) {
	f := func(blocksRaw, banksRaw, ifRaw uint8) bool {
		blocks := 1 << (blocksRaw % 8) // 1..128
		banks := 1 << (banksRaw % 4)   // 1..8
		if banks > blocks {
			banks = blocks
		}
		iface := 16 << (ifRaw % 6) // 16..512
		page := iface * 4
		if page > 512*(blocks/banks) {
			page = 512 * (blocks / banks)
		}
		if page < iface {
			return true // skip configs the concept forbids
		}
		g := macro(blocks, banks, Block1M, iface, page)
		a, err := g.Area()
		if err != nil {
			return true
		}
		sum := a.CellMm2 + a.ArrayOverheadMm2 + a.RedundancyMm2 + a.MacroOverheadMm2 + a.BISTMm2
		return sum > 0 && abs(sum-a.TotalMm2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestLogicArea(t *testing.T) {
	p := tech.Logic024()
	// 500 kgates on a 45 kgates/mm² process ≈ 11 mm².
	a := LogicAreaMm2(&p, 500)
	if a < 10 || a > 13 {
		t.Errorf("500 kgates area %.1f mm² implausible", a)
	}
	if LogicAreaMm2(&p, 0) != 0 || LogicAreaMm2(&p, -5) != 0 {
		t.Error("degenerate gate counts must yield 0")
	}
}

func TestPadRing(t *testing.T) {
	if PadRingAreaMm2(0) != 0 || PadRingAreaMm2(-3) != 0 {
		t.Error("no pins, no ring")
	}
	if PadRingAreaMm2(200) <= PadRingAreaMm2(100) {
		t.Error("more pins must cost more ring")
	}
}

func TestPadLimitedTransformation(t *testing.T) {
	// Paper §1: embedding can turn a pad-limited design into a
	// non-pad-limited one. A small logic die with a 256-bit external
	// memory bus is pad limited; absorbing the memory (bus becomes
	// internal) removes the limitation.
	p := tech.Logic024()
	external := Die{LogicKGates: 100, SignalPins: 256 + 60, Process: p}
	re := external.Compose()
	if !re.PadLimited {
		t.Fatalf("small die with 316 signal pins should be pad limited (core %.1f mm²)", re.CoreMm2)
	}

	g := macro(16, 4, Block1M, 256, 2048)
	a, err := g.Area()
	if err != nil {
		t.Fatal(err)
	}
	embedded := Die{LogicKGates: 100, MacroAreas: []AreaBreakdown{a}, SignalPins: 60, Process: p}
	rm := embedded.Compose()
	if rm.PadLimited {
		t.Fatal("embedded version should not be pad limited")
	}
}

func TestDiesPerWafer(t *testing.T) {
	p := tech.Siemens024()
	small := DiesPerWafer(&p, 20)
	big := DiesPerWafer(&p, 200)
	if small <= big || big <= 0 {
		t.Fatalf("dies per wafer must fall with die size: %d vs %d", small, big)
	}
	if DiesPerWafer(&p, 0) != 0 {
		t.Error("zero die area must yield 0 dies")
	}
	// 200-mm wafer has ~31400 mm²; a 20-mm² die should give well over
	// a thousand gross dies.
	if small < 1000 || small > 1600 {
		t.Errorf("20 mm² on 200 mm wafer: %d dies implausible", small)
	}
}

func TestFloorplanBasics(t *testing.T) {
	g := macro(16, 4, Block1M, 256, 2048)
	fp, err := g.Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	if fp.GridCols*fp.GridRows < 16 {
		t.Fatalf("grid %dx%d cannot hold 16 blocks", fp.GridCols, fp.GridRows)
	}
	if fp.WidthMm <= 0 || fp.HeightMm <= 0 || fp.BlockWmm <= 0 || fp.BlockHmm <= 0 {
		t.Fatal("dimensions must be positive")
	}
	// The floorplan footprint must be close to (and not below) the
	// area model's total: gridding overhead only.
	a, err := g.Area()
	if err != nil {
		t.Fatal(err)
	}
	foot := fp.WidthMm * fp.HeightMm
	if foot < 0.9*a.TotalMm2 || foot > 1.4*a.TotalMm2 {
		t.Errorf("floorplan %.1f mm² vs area model %.1f mm²", foot, a.TotalMm2)
	}
	// Near-square.
	ar := fp.AspectRatio()
	if ar < 0.4 || ar > 2.5 {
		t.Errorf("aspect ratio %.2f unroutable", ar)
	}
	// Interface wire length is a few mm for a 16-Mbit macro.
	if fp.InterfaceWireMm < 0.5 || fp.InterfaceWireMm > 10 {
		t.Errorf("interface wire %.2f mm implausible", fp.InterfaceWireMm)
	}
}

func TestFloorplanScalesWithCapacity(t *testing.T) {
	small, err := macro(4, 4, Block1M, 64, 512).Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	large, err := macro(64, 4, Block1M, 64, 512).Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	if large.WidthMm*large.HeightMm <= small.WidthMm*small.HeightMm {
		t.Error("bigger macros must occupy more silicon")
	}
	if large.InterfaceWireMm <= small.InterfaceWireMm {
		t.Error("bigger macros must have longer interface wires")
	}
}

func TestFloorplanInvalid(t *testing.T) {
	g := macro(16, 4, Block1M, 256, 2048)
	g.Blocks = 0
	if _, err := g.Floorplan(); err == nil {
		t.Error("invalid geometry must error")
	}
}

// Property: the floorplan footprint always covers the block area and
// the grid always holds every block.
func TestFloorplanProperty(t *testing.T) {
	f := func(blocksRaw, blockSel uint8) bool {
		blocks := int(blocksRaw%64) + 1
		blockBits := Block1M
		if blockSel%2 == 0 {
			blockBits = Block256K
		}
		banks := 1
		g := MacroGeometry{
			Process: tech.Siemens024(), BlockBits: blockBits, Blocks: blocks,
			Banks: banks, PageBits: 512, InterfaceBits: 64,
		}
		fp, err := g.Floorplan()
		if err != nil {
			return true // invalid corner
		}
		if fp.GridCols*fp.GridRows < blocks {
			return false
		}
		blockArea := float64(blocks) * fp.BlockWmm * fp.BlockHmm
		return fp.WidthMm*fp.HeightMm >= blockArea
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
