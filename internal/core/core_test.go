package core

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"edram/internal/edram"
	"edram/internal/tech"
)

func req() Requirements {
	return Requirements{
		CapacityMbit:  16,
		BandwidthGBps: 2,
		HitRate:       0.8,
		DefectsPerCm2: 0.8,
	}
}

func TestRequirementsValidate(t *testing.T) {
	if req().Validate() != nil {
		t.Fatal("good requirements rejected")
	}
	bad := []Requirements{
		{CapacityMbit: 0, BandwidthGBps: 1},
		{CapacityMbit: 16, BandwidthGBps: 0},
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 2},
		{CapacityMbit: 16, BandwidthGBps: 1, MaxAreaMm2: -1},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("bad requirements %d accepted", i)
		}
	}
}

func TestExploreCoversSpace(t *testing.T) {
	cands, err := Explore(req())
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 100 {
		t.Fatalf("design space suspiciously small: %d candidates", len(cands))
	}
	widths := map[int]bool{}
	banks := map[int]bool{}
	reds := map[edram.RedundancyLevel]bool{}
	for _, c := range cands {
		widths[c.Spec.InterfaceBits] = true
		banks[c.Spec.Banks] = true
		reds[c.Spec.Redundancy] = true
		if c.AreaMm2 <= 0 || c.PeakGBps <= 0 || c.CostUSD <= 0 {
			t.Fatalf("candidate with degenerate metrics: %+v", c.Spec)
		}
		if c.SustainedGBps > c.PeakGBps+1e-9 {
			t.Fatalf("sustained %.2f exceeds peak %.2f", c.SustainedGBps, c.PeakGBps)
		}
	}
	for w := 16; w <= 512; w *= 2 {
		if !widths[w] {
			t.Errorf("width %d never explored", w)
		}
	}
	if len(banks) < 4 || len(reds) < 4 {
		t.Error("bank/redundancy dimensions under-explored")
	}
}

func TestExploreErrors(t *testing.T) {
	if _, err := Explore(Requirements{}); err == nil {
		t.Error("invalid requirements must error")
	}
}

func TestFeasibleRespectsConstraints(t *testing.T) {
	r := req()
	r.MaxAreaMm2 = 18
	r.MaxPowerMW = 900
	cands, err := Explore(r)
	if err != nil {
		t.Fatal(err)
	}
	feas := Feasible(cands)
	if len(feas) == 0 {
		t.Fatal("expected feasible candidates")
	}
	for _, c := range feas {
		if c.AreaMm2 > 18 || c.PowerMW > 900 || c.SustainedGBps < 2 {
			t.Fatalf("infeasible candidate slipped through: %+v", c.Spec)
		}
		if len(c.Reasons) != 0 {
			t.Error("feasible candidates must have no violation reasons")
		}
	}
	// And at least one candidate must be infeasible in a constrained
	// problem (otherwise the constraints are vacuous).
	if len(feas) == len(cands) {
		t.Error("constraints filtered nothing")
	}
}

func TestParetoIsNonDominated(t *testing.T) {
	cands, err := Explore(req())
	if err != nil {
		t.Fatal(err)
	}
	feas := Feasible(cands)
	front := Pareto(feas)
	if len(front) == 0 || len(front) >= len(feas) {
		t.Fatalf("front size %d of %d implausible", len(front), len(feas))
	}
	for _, f := range front {
		fr := recordOf(&f)
		for _, c := range feas {
			if cr := recordOf(&c); dominates(&cr, &fr) {
				t.Fatalf("front member dominated: %+v by %+v", f.Spec, c.Spec)
			}
		}
	}
	// Sorted by area.
	for i := 1; i < len(front); i++ {
		if front[i].AreaMm2 < front[i-1].AreaMm2 {
			t.Fatal("front must be sorted by area")
		}
	}
}

func TestRecommendRoles(t *testing.T) {
	recs, err := Recommend(req())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) > 4 {
		t.Fatalf("got %d recommendations", len(recs))
	}
	roles := map[string]Candidate{}
	for _, r := range recs {
		roles[r.Role] = r.Candidate
		if !r.Feasible {
			t.Errorf("recommendation %s infeasible", r.Role)
		}
	}
	// The named roles must actually optimize their objective among the
	// recommendations.
	if ma, ok := roles["min-area"]; ok {
		for _, r := range recs {
			if r.AreaMm2 < ma.AreaMm2 {
				t.Error("min-area is not minimal")
			}
		}
	}
	if mb, ok := roles["max-bandwidth"]; ok {
		for _, r := range recs {
			if r.SustainedGBps > mb.SustainedGBps {
				t.Error("max-bandwidth is not maximal")
			}
		}
	}
}

func TestRecommendInfeasible(t *testing.T) {
	r := req()
	r.BandwidthGBps = 500 // beyond any 512-bit macro
	if _, err := Recommend(r); err == nil {
		t.Error("impossible bandwidth must error")
	}
}

func TestSustainedEstimateShape(t *testing.T) {
	m, err := edram.Build(edram.Spec{CapacityMbit: 16, InterfaceBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Sustained grows with hit rate and caps at peak.
	prev := -1.0
	for _, h := range []float64{0, 0.25, 0.5, 0.75, 1} {
		s := SustainedEstimate(m, h)
		if s < prev {
			t.Fatalf("sustained must grow with hit rate at h=%v", h)
		}
		if s > m.PeakBandwidthGBps()+1e-9 {
			t.Fatalf("sustained exceeds peak at h=%v", h)
		}
		prev = s
	}
	if SustainedEstimate(m, 1) < 0.99*m.PeakBandwidthGBps() {
		t.Error("all-hit traffic must sustain ~peak")
	}
}

func TestMoreBanksSustainMore(t *testing.T) {
	one, err := edram.Build(edram.Spec{CapacityMbit: 16, InterfaceBits: 256, Banks: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := edram.Build(edram.Spec{CapacityMbit: 16, InterfaceBits: 256, Banks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if SustainedEstimate(eight, 0.3) <= SustainedEstimate(one, 0.3) {
		t.Error("more banks must sustain more under misses")
	}
}

// Property: dominance is irreflexive and asymmetric.
func TestDominanceProperty(t *testing.T) {
	cands, err := Explore(req())
	if err != nil {
		t.Fatal(err)
	}
	f := func(i, j uint16) bool {
		a := recordOf(&cands[int(i)%len(cands)])
		b := recordOf(&cands[int(j)%len(cands)])
		if dominates(&a, &a) {
			return false
		}
		return !(dominates(&a, &b) && dominates(&b, &a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMultiMacroDimension(t *testing.T) {
	cands, err := Explore(req())
	if err != nil {
		t.Fatal(err)
	}
	ones, twos := 0, 0
	for _, c := range cands {
		switch c.Macros {
		case 1:
			ones++
		case 2:
			twos++
			// Two macros must split the capacity.
			if c.Spec.CapacityMbit != req().CapacityMbit/2 {
				t.Fatalf("2-macro candidate holds %d Mbit each", c.Spec.CapacityMbit)
			}
		default:
			t.Fatalf("unexpected macro count %d", c.Macros)
		}
	}
	if ones == 0 || twos == 0 {
		t.Fatalf("macro dimension under-explored: %d/%d", ones, twos)
	}
}

func TestMultiMacroUnlocksBandwidth(t *testing.T) {
	// A bandwidth target beyond any single 512-bit macro must still be
	// satisfiable with two macros.
	r := req()
	r.BandwidthGBps = 12
	recs, err := Recommend(r)
	if err != nil {
		t.Fatalf("12 GB/s should be reachable with two macros: %v", err)
	}
	found := false
	for _, rec := range recs {
		if rec.Macros == 2 {
			found = true
		}
		if rec.SustainedGBps < 12 {
			t.Errorf("%s sustains only %.1f GB/s", rec.Role, rec.SustainedGBps)
		}
	}
	if !found {
		t.Error("expected a 2-macro recommendation at 12 GB/s")
	}
}

func TestMinClockConstraint(t *testing.T) {
	r := req()
	r.MinClockMHz = 160 // only 256-Kbit-block macros reach this
	cands, err := Explore(r)
	if err != nil {
		t.Fatal(err)
	}
	feas := Feasible(cands)
	if len(feas) == 0 {
		t.Fatal("expected feasible fast configurations")
	}
	for _, c := range feas {
		if c.Macro.ClockMHz < 160 {
			t.Fatalf("slow candidate slipped through: %.0f MHz", c.Macro.ClockMHz)
		}
		if c.Spec.BlockBits != geomBlock256K() {
			t.Errorf("only 256-Kbit blocks reach 160 MHz, got %d-bit blocks", c.Spec.BlockBits)
		}
	}
	bad := req()
	bad.MinClockMHz = -1
	if bad.Validate() == nil {
		t.Error("negative min clock must fail validation")
	}
}

func geomBlock256K() int { return 256 * 1024 }

func TestExploreAcrossProcesses(t *testing.T) {
	r := req()
	r.Processes = tech.Processes()
	cands, err := Explore(r)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[tech.ProcessKind]bool{}
	for _, c := range cands {
		kinds[c.Macro.Geometry.Process.Kind] = true
	}
	if len(kinds) != 3 {
		t.Fatalf("explored %d process kinds, want 3", len(kinds))
	}
	// The DRAM-based process must dominate the min-area pick (denser
	// cells) — the §3 density argument surfacing through the explorer.
	recs, err := Recommend(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Role == "min-area" && rec.Macro.Geometry.Process.Kind == tech.LogicBased {
			t.Error("logic-based process cannot win min-area")
		}
	}
}

func TestValidateBySimulationPaths(t *testing.T) {
	r := req()
	cands, err := Explore(r)
	if err != nil {
		t.Fatal(err)
	}
	c := cands[0]
	// Happy path with a stub simulator.
	v, err := ValidateBySimulation(c, r, func(d float64, cc Candidate) (float64, float64, error) {
		return SustainedEstimate(cc.Macro, 0.5), 0.5, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Agreement < 0.99 {
		t.Errorf("stub simulator must agree perfectly, got %.3f", v.Agreement)
	}
	// Error propagation.
	if _, err := ValidateBySimulation(c, r, func(float64, Candidate) (float64, float64, error) {
		return 0, 0, errSim
	}); err == nil {
		t.Error("simulator error must propagate")
	}
	// Invalid requirements.
	if _, err := ValidateBySimulation(c, Requirements{}, func(float64, Candidate) (float64, float64, error) {
		return 1, 1, nil
	}); err == nil {
		t.Error("invalid requirements must error")
	}
}

var errSim = fmt.Errorf("boom")

func TestNearestMissReporting(t *testing.T) {
	// An impossible requirement produces an error that names the
	// closest miss's reasons.
	r := req()
	r.BandwidthGBps = 500
	_, err := Recommend(r)
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
	if !strings.Contains(err.Error(), "sustained") {
		t.Errorf("error should carry the nearest-miss reason: %v", err)
	}
}

// TestCloserMissTieBreak pins the nearest-miss rule: fewer reasons
// win, and equal counts go to the lower Seq whatever the arrival
// order, so a multi-worker stream names the same miss every run.
func TestCloserMissTieBreak(t *testing.T) {
	one := func(seq int, reason string) Candidate {
		return Candidate{Seq: seq, Reasons: []string{reason}}
	}
	two := Candidate{Seq: 1, Reasons: []string{"a", "b"}}
	early, late := one(7, "power 211 mW > cap 5"), one(40, "power 205 mW > cap 5")
	for _, order := range [][]Candidate{{two, late, early}, {early, late, two}, {late, two, early}} {
		var nearest Candidate
		for i := range order {
			if CloserMiss(&order[i], &nearest) {
				nearest = order[i]
			}
		}
		if nearest.Seq != early.Seq {
			t.Errorf("order %v: nearest miss Seq %d, want %d", order, nearest.Seq, early.Seq)
		}
	}
	if !CloserMiss(&two, &Candidate{}) {
		t.Error("a miss must beat the empty nearest")
	}
}
