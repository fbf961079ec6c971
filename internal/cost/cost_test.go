package cost

import (
	"math"
	"testing"

	"edram/internal/tech"
)

func TestDieCost(t *testing.T) {
	p := tech.Siemens024()
	c, err := DieCostUSD(&p, 50, 0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// ~560 gross dies at 50 mm² on a 200-mm wafer; $2800/(560*0.8) ≈ $6.
	if c < 3 || c > 12 {
		t.Errorf("50 mm² die cost $%.2f implausible", c)
	}
	// Monotone: bigger dies cost more.
	c2, err := DieCostUSD(&p, 100, 0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if c2 <= c {
		t.Error("bigger die must cost more")
	}
	// Lower yield costs more.
	c3, _ := DieCostUSD(&p, 50, 0, 0.4)
	if c3 <= c {
		t.Error("worse yield must cost more")
	}
	// Extra metal layers cost more (paper §1).
	c4, _ := DieCostUSD(&p, 50, 2, 0.8)
	if c4 <= c {
		t.Error("extra metal must cost more")
	}
}

func TestDieCostErrors(t *testing.T) {
	p := tech.Siemens024()
	if _, err := DieCostUSD(&p, 0, 0, 0.5); err == nil {
		t.Error("zero area must error")
	}
	if _, err := DieCostUSD(&p, 50, 0, 0); err == nil {
		t.Error("zero yield must error")
	}
	if _, err := DieCostUSD(&p, 50, 0, 1.5); err == nil {
		t.Error("yield > 1 must error")
	}
	if _, err := DieCostUSD(&p, 50, -1, 0.5); err == nil {
		t.Error("negative metal must error")
	}
	if _, err := DieCostUSD(&p, 1e9, 0, 0.5); err == nil {
		t.Error("die bigger than wafer must error")
	}
}

func TestPackageCost(t *testing.T) {
	if PackageCostUSD(0) != 0 || PackageCostUSD(-5) != 0 {
		t.Error("no pins, no package")
	}
	if PackageCostUSD(300) <= PackageCostUSD(44) {
		t.Error("more pins must cost more")
	}
}

func TestChipCostSums(t *testing.T) {
	c := NewChipCost(5, 1, 0.5)
	if c.TotalUSD != 6.5 {
		t.Errorf("total = %v", c.TotalUSD)
	}
}

func TestSystemComparison(t *testing.T) {
	// Paper §1: higher integration saves board space, packages and
	// pins. 16 discrete chips at $5.5 each vs one larger embedded die.
	discrete := DiscreteSystem(16, 5.5, 2.2)
	embedded := EmbeddedSystem(45, 4.0)
	if discrete.BoardCm2 <= embedded.BoardCm2 {
		t.Error("discrete must burn more board")
	}
	if discrete.Chips != 16 || embedded.Chips != 1 {
		t.Error("chip accounting wrong")
	}
	// Total: 16*5.5 + 35.2*0.55 = 107.4 vs 45 + 2.2 = 47.2.
	if discrete.TotalUSD <= embedded.TotalUSD {
		t.Errorf("discrete $%.1f should exceed embedded $%.1f here",
			discrete.TotalUSD, embedded.TotalUSD)
	}
	if DiscreteSystem(-3, 5, 1).Chips != 0 {
		t.Error("negative chips must clamp")
	}
}

func TestMacroDieCost(t *testing.T) {
	p := tech.Siemens024()
	c0, y0, err := MacroDieCost(&p, 500, 16, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, y1, err := MacroDieCost(&p, 500, 16, 0.8, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// Redundancy repair lifts effective yield and cuts cost.
	if y1 <= y0 || c1 >= c0 {
		t.Errorf("repair must help: yield %v->%v cost %v->%v", y0, y1, c0, c1)
	}
	if y1 > 1 {
		t.Error("yield must cap at 1")
	}
	if _, _, err := MacroDieCost(&p, 500, 16, 0.8, 1.5); err == nil {
		t.Error("repair fraction > 1 must error")
	}
	if _, _, err := MacroDieCost(&p, 0, 0, 0.8, 0.5); err == nil {
		t.Error("empty die must error")
	}
}

func TestMacroDieCostYieldConsistency(t *testing.T) {
	p := tech.Siemens024()
	_, y, err := MacroDieCost(&p, 500, 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y-1) > 1e-9 {
		t.Errorf("zero defects must give yield 1, got %v", y)
	}
}

func TestBreakEvenVolume(t *testing.T) {
	n := DefaultNRE()
	// $10 saving per unit: break even at NRE/10.
	v := BreakEvenVolume(n, 30, 20)
	if math.Abs(v-n.Total()/10) > 1e-9 {
		t.Errorf("break-even = %v", v)
	}
	// No saving: never.
	if BreakEvenVolume(n, 20, 25) != 0 {
		t.Error("costlier embedded build must never break even")
	}
	// The paper's rule of thumb: volumes are "usually high" — with a
	// realistic ~$20 system saving the break-even sits in the tens of
	// thousands of units, i.e. consumer-product territory.
	v = BreakEvenVolume(n, 34, 8)
	if v < 10_000 || v > 100_000 {
		t.Errorf("realistic break-even %v outside consumer-volume territory", v)
	}
}

func TestVolumeCost(t *testing.T) {
	n := DefaultNRE()
	if VolumeCostUSD(n, 10, 0) != 0 {
		t.Error("zero volume must yield 0")
	}
	lo := VolumeCostUSD(n, 10, 10_000)
	hi := VolumeCostUSD(n, 10, 1_000_000)
	if hi >= lo {
		t.Error("amortization must cut unit cost with volume")
	}
	if hi < 10 {
		t.Error("unit cost cannot drop below the marginal cost")
	}
}
