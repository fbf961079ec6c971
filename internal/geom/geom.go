// Package geom implements the silicon-area models of the reproduction:
// the floorplan of an embedded DRAM macro built from the paper's §5
// building blocks (256 Kbit and 1 Mbit), standard-cell logic area, pad
// rings, and die composition.
//
// The block-level constants are calibrated so that a ≥8–16-Mbit macro on
// the 0.24 µm DRAM-based process reaches the paper's published area
// efficiency of about 1 Mbit/mm², with small macros markedly less
// efficient (the fixed control/interface overhead dominates) — the
// behaviour that motivates the paper's "from 8-16 Mbit upwards" phrasing.
package geom

import (
	"errors"
	"fmt"
	"math"

	"edram/internal/tech"
	"edram/internal/units"
)

// Building-block sizes of the paper's §5 concept, in bits.
const (
	Block256K = 256 * units.Kbit
	Block1M   = 1 * units.Mbit
)

// Floorplan constants, in F² (squares of the drawn feature size) so they
// scale across process nodes.
const (
	// senseAmpF2PerColumn is the sense-amplifier strip area per column.
	senseAmpF2PerColumn = 1200
	// rowDecF2PerRow is the row-decoder/driver strip area per row.
	rowDecF2PerRow = 2000
	// blockFixedF2 is the per-block corner/control overhead.
	blockFixedF2 = 2.0e6
)

// Macro-level overhead constants, in mm² (dominated by layout pitch, not
// by F², at this granularity).
const (
	macroFixedMm2       = 0.90   // control, timing, test access
	perBankControlMm2   = 0.05   // bank sequencer + address latches
	perInterfaceBitMm2  = 0.0008 // data path, driver, mux per interface bit
	bistControllerKGate = 15     // paper §5: "small, synthesizable BIST controller"
)

// MacroGeometry describes the physical organization of one embedded DRAM
// macro. The organization parameters mirror the free dimensions of paper
// §3: block size, bank count, page length, interface width, redundancy.
type MacroGeometry struct {
	Process   tech.Process
	BlockBits int // Block256K or Block1M
	Blocks    int // number of building blocks
	Banks     int // independently operable banks
	// PageBits is the activated page length (may span several blocks
	// fired in parallel; it does not change the floorplan, only timing
	// and energy).
	PageBits int
	// InterfaceBits is the macro data interface width (16..512).
	InterfaceBits int
	// SpareRowsPerBlock / SpareColsPerBlock implement the redundancy
	// level ("different redundancy levels, in order to optimize the
	// yield of the memory module", §5).
	SpareRowsPerBlock int
	SpareColsPerBlock int
	// WithBIST includes the synthesizable BIST controller.
	WithBIST bool
	// ECCOverheadFrac is the check-bit storage overhead of the macro's
	// ECC scheme as a fraction of the payload width (e.g. 0.125 for a
	// (72,64) SEC-DED code; 0 for none). The check bits replicate the
	// cell array and its pitch-matched overhead, not the macro control.
	ECCOverheadFrac float64
}

// TotalBits returns the usable macro capacity in bits (spares excluded).
func (g *MacroGeometry) TotalBits() int { return g.BlockBits * g.Blocks }

// BlockColumns returns the number of columns (bits per internal row) of
// one building block: blocks are square in bit count.
func (g *MacroGeometry) BlockColumns() int {
	return units.NextPow2(int(math.Sqrt(float64(g.BlockBits))))
}

// BlockRows returns the number of internal rows of one building block.
func (g *MacroGeometry) BlockRows() int {
	c := g.BlockColumns()
	if c == 0 {
		return 0
	}
	return g.BlockBits / c
}

// Validate checks physical and §5-concept constraints.
func (g *MacroGeometry) Validate() error {
	if err := g.ValidateSansPage(); err != nil {
		return err
	}
	return g.ValidatePage()
}

// ValidateSansPage checks every constraint except the page-length rules.
// The macro area, block timing and cost models are all independent of
// the page length, so a geometry valid under ValidateSansPage can be
// shared across page-length variants (the design explorer's memoized
// evaluation relies on this split); ValidatePage covers the rest.
func (g *MacroGeometry) ValidateSansPage() error {
	if err := g.Process.Validate(); err != nil {
		return err
	}
	if g.BlockBits != Block256K && g.BlockBits != Block1M {
		return fmt.Errorf("geom: block size %d bits; the concept offers 256 Kbit and 1 Mbit blocks", g.BlockBits)
	}
	if g.Blocks < 1 {
		return fmt.Errorf("geom: need at least one block, got %d", g.Blocks)
	}
	if g.Banks < 1 || g.Banks > g.Blocks {
		return fmt.Errorf("geom: banks %d must be in [1, blocks=%d]", g.Banks, g.Blocks)
	}
	if g.Blocks%g.Banks != 0 {
		return fmt.Errorf("geom: blocks %d not divisible by banks %d", g.Blocks, g.Banks)
	}
	if g.InterfaceBits < 16 || g.InterfaceBits > 512 || !units.IsPow2(g.InterfaceBits) {
		return fmt.Errorf("geom: interface width %d outside the concept's 16..512 power-of-two range", g.InterfaceBits)
	}
	if g.SpareRowsPerBlock < 0 || g.SpareColsPerBlock < 0 {
		return fmt.Errorf("geom: spare counts must be non-negative")
	}
	if g.ECCOverheadFrac < 0 || g.ECCOverheadFrac >= 1 {
		return fmt.Errorf("geom: ECC overhead fraction %g out of [0,1)", g.ECCOverheadFrac)
	}
	return nil
}

// MaxPageBits is the bank's column span: the longest page the
// geometry's blocks can open in parallel.
func (g *MacroGeometry) MaxPageBits() int { return g.BlockColumns() * (g.Blocks / g.Banks) }

// PageFits reports whether ValidatePage accepts the page length,
// without building the error: the design explorer's sweep rejects
// many page lengths and reads none of the messages.
func (g *MacroGeometry) PageFits() bool { return g.pageError(false) == nil }

// ValidatePage checks only the page-length rules (positive, at least the
// interface width, within the bank's column span).
func (g *MacroGeometry) ValidatePage() error { return g.pageError(true) }

// errPageRange is PageFits' undescribed page-length failure.
var errPageRange = errors.New("geom: page length out of range")

// pageError applies the page-length rules, describing a failure only
// when asked to.
func (g *MacroGeometry) pageError(describe bool) error {
	short := g.PageBits <= 0 || g.PageBits < g.InterfaceBits
	switch {
	case !short && g.PageBits <= g.MaxPageBits():
		return nil
	case !describe:
		return errPageRange
	case short:
		return fmt.Errorf("geom: page length %d must be positive and >= interface width %d", g.PageBits, g.InterfaceBits)
	}
	return fmt.Errorf("geom: page length %d exceeds the bank's column span %d", g.PageBits, g.MaxPageBits())
}

// AreaBreakdown is the silicon-area report of a macro.
type AreaBreakdown struct {
	CellMm2          float64 // payload storage cells
	ArrayOverheadMm2 float64 // sense amps, decoders, per-block fixed
	RedundancyMm2    float64 // spare rows/columns
	ECCMm2           float64 // check-bit columns and their array overhead
	MacroOverheadMm2 float64 // control, interface, per-bank logic
	BISTMm2          float64 // optional BIST controller
	TotalMm2         float64
	// EfficiencyMbitPerMm2 is usable Mbit per total mm² — the paper's
	// headline metric.
	EfficiencyMbitPerMm2 float64
}

// Area computes the macro area. The organization must validate.
func (g MacroGeometry) Area() (AreaBreakdown, error) {
	if err := g.Validate(); err != nil {
		return AreaBreakdown{}, err
	}
	return g.area(), nil
}

// AreaSansPage is Area for a geometry whose page length is not chosen
// yet: the area model never reads PageBits, so it checks only
// ValidateSansPage. It validates once, through the pointer, which is
// what a template build that shares the area across page lengths
// wants.
func (g *MacroGeometry) AreaSansPage() (AreaBreakdown, error) {
	if err := g.ValidateSansPage(); err != nil {
		return AreaBreakdown{}, err
	}
	return g.area(), nil
}

// area is the area model of a validated geometry.
func (g *MacroGeometry) area() AreaBreakdown {
	f2 := g.Process.FeatureUm * g.Process.FeatureUm // µm² per F²
	um2ToMm2 := 1e-6

	rows := float64(g.BlockRows())
	cols := float64(g.BlockColumns())
	cellUm2 := g.Process.CellAreaUm2()

	var b AreaBreakdown
	nb := float64(g.Blocks)
	b.CellMm2 = nb * rows * cols * cellUm2 * um2ToMm2
	b.ArrayOverheadMm2 = nb * (senseAmpF2PerColumn*cols + rowDecF2PerRow*rows + blockFixedF2) * f2 * um2ToMm2
	// A spare row adds a row of cells plus its decoder slice; a spare
	// column adds a column of cells plus its sense amp.
	spareUm2 := float64(g.SpareRowsPerBlock)*(cols*cellUm2+rowDecF2PerRow*f2) +
		float64(g.SpareColsPerBlock)*(rows*cellUm2+senseAmpF2PerColumn*f2)
	b.RedundancyMm2 = nb * spareUm2 * um2ToMm2
	// Check bits widen every stored word, so the ECC area replicates
	// the cell array and the pitch-matched array overhead by the code's
	// storage fraction.
	b.ECCMm2 = g.ECCOverheadFrac * (b.CellMm2 + b.ArrayOverheadMm2)
	b.MacroOverheadMm2 = macroFixedMm2 + float64(g.Banks)*perBankControlMm2 + float64(g.InterfaceBits)*perInterfaceBitMm2
	if g.WithBIST {
		b.BISTMm2 = LogicAreaMm2(&g.Process, bistControllerKGate)
	}
	b.TotalMm2 = b.CellMm2 + b.ArrayOverheadMm2 + b.RedundancyMm2 + b.ECCMm2 + b.MacroOverheadMm2 + b.BISTMm2
	b.EfficiencyMbitPerMm2 = units.Ratio(units.BitsToMbit(int64(g.TotalBits())), b.TotalMm2)
	return b
}

// LogicAreaMm2 returns the area of kgates of random logic on process p.
func LogicAreaMm2(p *tech.Process, kgates float64) float64 {
	if kgates <= 0 || p.LogicDensityKGatesPerMm2 <= 0 {
		return 0
	}
	return kgates / p.LogicDensityKGatesPerMm2
}

// PadAreaMm2 is the area of one I/O pad cell including its driver.
const PadAreaMm2 = 0.011

// PadRingAreaMm2 returns the area consumed by an I/O ring of the given
// signal count (power/ground pads are added as 25% on top).
func PadRingAreaMm2(signalPins int) float64 {
	if signalPins <= 0 {
		return 0
	}
	return float64(signalPins) * 1.25 * PadAreaMm2
}

// Die aggregates logic, one or more memory macros and the pad ring into a
// die-area estimate with a pad-limitation check (paper §1: "pad-limited
// designs may be transformed into non-pad-limited ones").
type Die struct {
	LogicKGates float64
	MacroAreas  []AreaBreakdown
	SignalPins  int
	Process     tech.Process
}

// DieReport is the result of composing a die.
type DieReport struct {
	CoreMm2    float64 // logic + macros
	PadRingMm2 float64
	TotalMm2   float64
	// PadLimited is true when the perimeter needed by the pads exceeds
	// the perimeter of the core-limited die.
	PadLimited bool
}

// Compose computes the die report.
func (d Die) Compose() DieReport {
	var r DieReport
	r.CoreMm2 = LogicAreaMm2(&d.Process, d.LogicKGates)
	for _, m := range d.MacroAreas {
		r.CoreMm2 += m.TotalMm2
	}
	r.PadRingMm2 = PadRingAreaMm2(d.SignalPins)
	r.TotalMm2 = r.CoreMm2 + r.PadRingMm2
	// Pad-limitation: pads sit on the perimeter at ~90 µm pitch. The
	// core-limited edge is sqrt(core); if the pads need more edge, the
	// die is pad limited.
	padEdgeMm := float64(d.SignalPins) * 1.25 * 0.090 / 4
	coreEdgeMm := math.Sqrt(r.CoreMm2)
	r.PadLimited = padEdgeMm > coreEdgeMm
	if r.PadLimited {
		// The die grows to fit the ring.
		r.TotalMm2 = padEdgeMm*padEdgeMm + r.PadRingMm2
	}
	return r
}

// DiesPerWafer estimates gross dies per wafer for the process, using the
// classic circular-wafer formula with edge loss.
func DiesPerWafer(p *tech.Process, dieMm2 float64) int {
	if dieMm2 <= 0 {
		return 0
	}
	d := p.WaferDiameterMm
	waferArea := math.Pi * d * d / 4
	gross := waferArea/dieMm2 - math.Pi*d/math.Sqrt(2*dieMm2)
	if gross < 0 {
		return 0
	}
	return int(gross)
}
