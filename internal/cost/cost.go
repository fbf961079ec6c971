// Package cost implements the economics models of the reproduction: die
// cost from wafer cost, dies-per-wafer and yield; packaging and test
// adders; and the discrete-vs-embedded system cost comparison behind the
// paper's observations that eDRAM commands process-cost adders (extra
// masks, merged steps) but saves packages, pins and board space.
package cost

import (
	"fmt"

	"edram/internal/geom"
	"edram/internal/tech"
	"edram/internal/yield"
)

// DieCostUSD returns the cost of one good die of dieMm2 on process p
// with extraMetal additional metal layers, at the given die yield.
func DieCostUSD(p *tech.Process, dieMm2 float64, extraMetal int, dieYield float64) (float64, error) {
	if dieMm2 <= 0 {
		return 0, fmt.Errorf("cost: die area must be positive")
	}
	if dieYield <= 0 || dieYield > 1 {
		return 0, fmt.Errorf("cost: yield %g out of (0,1]", dieYield)
	}
	if extraMetal < 0 {
		return 0, fmt.Errorf("cost: extra metal layers must be non-negative")
	}
	wafer := p.WaferCostUSD + float64(extraMetal)*p.MetalLayerAdderUSD
	dies := geom.DiesPerWafer(p, dieMm2)
	if dies < 1 {
		return 0, fmt.Errorf("cost: die of %.0f mm² does not fit the wafer", dieMm2)
	}
	return wafer / (float64(dies) * dieYield), nil
}

// PackageCostUSD models package cost as a base plus a per-pin adder
// (paper §1: "more expensive packages may be needed"; embedding saves
// packages and pins).
func PackageCostUSD(signalPins int) float64 {
	if signalPins <= 0 {
		return 0
	}
	return 0.35 + 0.011*float64(signalPins)
}

// BoardCostUSDPerCm2 is the loaded-board cost used for footprint
// accounting.
const BoardCostUSDPerCm2 = 0.55

// ChipCost aggregates one packaged, tested chip.
type ChipCost struct {
	DieUSD     float64
	PackageUSD float64
	TestUSD    float64
	TotalUSD   float64
}

// NewChipCost sums the components.
func NewChipCost(die, pkg, test float64) ChipCost {
	return ChipCost{DieUSD: die, PackageUSD: pkg, TestUSD: test, TotalUSD: die + pkg + test}
}

// SystemCost compares memory subsystem implementations.
type SystemCost struct {
	Name     string
	Chips    int
	ChipUSD  float64
	BoardCm2 float64
	TotalUSD float64
}

// DiscreteSystem costs a board of n identical chips, each chipUSD, with
// footprintCm2 of board each (device + routing share).
func DiscreteSystem(n int, chipUSD, footprintCm2 float64) SystemCost {
	if n < 0 {
		n = 0
	}
	board := float64(n) * footprintCm2
	return SystemCost{
		Name:     "discrete",
		Chips:    n,
		ChipUSD:  chipUSD,
		BoardCm2: board,
		TotalUSD: float64(n)*chipUSD + board*BoardCostUSDPerCm2,
	}
}

// EmbeddedSystem costs the single-die alternative.
func EmbeddedSystem(chipUSD, footprintCm2 float64) SystemCost {
	return SystemCost{
		Name:     "embedded",
		Chips:    1,
		ChipUSD:  chipUSD,
		BoardCm2: footprintCm2,
		TotalUSD: chipUSD + footprintCm2*BoardCostUSDPerCm2,
	}
}

// MacroDieCost computes the cost of a die carrying logicKGates of logic
// plus an eDRAM macro of macroMm2 on process p, with yield from the
// negative-binomial model improved by the macro's redundancy repair
// rate (repairFraction of memory-defective dies are recovered).
func MacroDieCost(p *tech.Process, logicKGates, macroMm2, defectsPerCm2, repairFraction float64) (float64, float64, error) {
	if repairFraction < 0 || repairFraction > 1 {
		return 0, 0, fmt.Errorf("cost: repair fraction %g out of [0,1]", repairFraction)
	}
	logicMm2 := geom.LogicAreaMm2(p, logicKGates)
	die := logicMm2 + macroMm2
	if die <= 0 {
		return 0, 0, fmt.Errorf("cost: empty die")
	}
	y := yield.NegBinomialYield(defectsPerCm2, die, 2.5)
	// Redundancy recovers a fraction of the dies lost to memory-area
	// defects.
	memShare := macroMm2 / die
	lost := 1 - y
	recovered := lost * memShare * repairFraction
	eff := y + recovered
	if eff > 1 {
		eff = 1
	}
	c, err := DieCostUSD(p, die, 0, eff)
	if err != nil {
		return 0, 0, err
	}
	return c, eff, nil
}

// CostPerMbitUSD normalizes a die cost by its usable memory capacity —
// the metric that makes ECC and redundancy overheads comparable across
// organizations (a stronger code costs area; offlined capacity would
// cost usable bits).
func CostPerMbitUSD(dieUSD, usableMbit float64) float64 {
	if usableMbit <= 0 {
		return 0
	}
	return dieUSD / usableMbit
}

// NRE models the non-recurring engineering cost of an embedded design:
// the mask set of the eDRAM process plus the design/porting effort the
// paper's §1 warns about ("libraries must be developed and
// characterized, macros must be ported, and design flows must be
// tuned").
type NRE struct {
	MaskSetUSD float64
	DesignUSD  float64
}

// DefaultNRE returns 0.25 µm-era values.
func DefaultNRE() NRE {
	return NRE{MaskSetUSD: 250_000, DesignUSD: 400_000}
}

// Total returns the NRE sum.
func (n NRE) Total() float64 { return n.MaskSetUSD + n.DesignUSD }

// BreakEvenVolume returns the unit volume at which the embedded build
// (high NRE, low unit cost) catches the discrete build (no extra NRE,
// high unit cost). It returns 0 when the embedded unit cost is not
// lower — then embedding never pays on cost alone (paper §2: "either
// the memory content is high enough to justify the higher DRAM process
// costs, or eDRAM is required for bandwidth or other reasons").
func BreakEvenVolume(n NRE, discreteUnitUSD, embeddedUnitUSD float64) float64 {
	saving := discreteUnitUSD - embeddedUnitUSD
	if saving <= 0 {
		return 0
	}
	return n.Total() / saving
}

// VolumeCostUSD returns the per-unit cost at a production volume,
// amortizing the NRE.
func VolumeCostUSD(n NRE, unitUSD float64, volume float64) float64 {
	if volume <= 0 {
		return 0
	}
	return unitUSD + n.Total()/volume
}
