package edram

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"edram/internal/geom"
	"edram/internal/power"
	"edram/internal/reliab"
	"edram/internal/tech"
)

func build(t *testing.T, spec Spec) *Macro {
	t.Helper()
	m, err := Build(spec)
	if err != nil {
		t.Fatalf("Build(%+v): %v", spec, err)
	}
	return m
}

func TestPaperConceptCornerPoints(t *testing.T) {
	// Paper §5 key features, all in one place:
	//   cycle better than 7 ns / clock better than 143 MHz,
	//   ~1 Mbit/mm² for >= 8-16 Mbit modules,
	//   up to ~9 GB/s per module at 512 bits,
	//   capacities to at least 128 Mbit, interfaces 16..512.
	m := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256})
	if m.Timing.TCKns >= 7.01 {
		t.Errorf("cycle %.2f ns, want < 7", m.Timing.TCKns)
	}
	if m.ClockMHz < 143 {
		t.Errorf("clock %.0f MHz, want >= 143", m.ClockMHz)
	}
	if m.Area.EfficiencyMbitPerMm2 < 0.85 || m.Area.EfficiencyMbitPerMm2 > 1.6 {
		t.Errorf("area efficiency %.2f Mbit/mm², want ~1", m.Area.EfficiencyMbitPerMm2)
	}

	wide := build(t, Spec{CapacityMbit: 128, InterfaceBits: 512})
	bw := wide.PeakBandwidthGBps()
	if bw < 8 || bw > 12.5 {
		t.Errorf("512-bit module peak %.1f GB/s, want ~9", bw)
	}
}

func TestBuildAutoDefaults(t *testing.T) {
	m := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256})
	if m.Geometry.BlockBits != geom.Block1M {
		t.Error("large macro should default to 1-Mbit blocks")
	}
	if m.Geometry.Banks != 4 {
		t.Errorf("default banks = %d, want 4", m.Geometry.Banks)
	}
	if m.Geometry.PageBits != 2048 {
		t.Errorf("default page = %d, want 8x interface = 2048", m.Geometry.PageBits)
	}

	small := build(t, Spec{CapacityMbit: 1, InterfaceBits: 16})
	if small.Geometry.BlockBits != geom.Block256K {
		t.Error("small macro should default to 256-Kbit blocks")
	}
	if small.Geometry.Banks != 4 {
		t.Errorf("1 Mbit = 4 blocks of 256 Kbit, so 4 banks fit; got %d", small.Geometry.Banks)
	}
}

func TestBuildRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"zero capacity", Spec{InterfaceBits: 64}},
		{"over ceiling", Spec{CapacityMbit: 512, InterfaceBits: 64}},
		{"bad block", Spec{CapacityMbit: 16, InterfaceBits: 64, BlockBits: 12345}},
		{"banks don't divide blocks", Spec{CapacityMbit: 16, InterfaceBits: 64, Banks: 5}},
		{"interface too wide", Spec{CapacityMbit: 16, InterfaceBits: 1024}},
		{"interface too narrow", Spec{CapacityMbit: 16, InterfaceBits: 8}},
		{"page below interface", Spec{CapacityMbit: 16, InterfaceBits: 256, PageBits: 64}},
	}
	for _, c := range cases {
		if _, err := Build(c.spec); err == nil {
			t.Errorf("%s: Build should fail", c.name)
		}
	}
}

func TestSmallBlocksFasterButLarger(t *testing.T) {
	// The concept's central trade-off: 256-Kbit blocks cycle faster,
	// 1-Mbit blocks pack denser.
	big := build(t, Spec{CapacityMbit: 8, InterfaceBits: 128, BlockBits: geom.Block1M})
	small := build(t, Spec{CapacityMbit: 8, InterfaceBits: 128, BlockBits: geom.Block256K})
	if small.Timing.TCKns >= big.Timing.TCKns {
		t.Errorf("256-Kbit blocks (%.2f ns) must cycle faster than 1-Mbit (%.2f ns)",
			small.Timing.TCKns, big.Timing.TCKns)
	}
	if small.Area.TotalMm2 <= big.Area.TotalMm2 {
		t.Errorf("256-Kbit-block macro (%.2f mm²) must be larger than 1-Mbit (%.2f mm²)",
			small.Area.TotalMm2, big.Area.TotalMm2)
	}
}

func TestTargetClockCaps(t *testing.T) {
	m := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256, TargetClockMHz: 100})
	if m.ClockMHz != 100 {
		t.Errorf("clock = %v, want capped 100", m.ClockMHz)
	}
	if math.Abs(m.Timing.TCKns-10) > 1e-9 {
		t.Errorf("tCK = %v, want 10 ns", m.Timing.TCKns)
	}
	// A target above the array max must not raise the clock.
	fast := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256, TargetClockMHz: 10000})
	free := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256})
	if fast.ClockMHz > free.ClockMHz {
		t.Error("target clock must not exceed the array's maximum")
	}
}

func TestDeviceConfigValid(t *testing.T) {
	for _, mbit := range []int{1, 4, 16, 64, 128} {
		iface := 64
		m := build(t, Spec{CapacityMbit: mbit, InterfaceBits: iface})
		cfg := m.DeviceConfig()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d Mbit: device config: %v", mbit, err)
		}
		if cfg.TotalBits() != int64(mbit)<<20 {
			t.Errorf("%d Mbit: device holds %d bits", mbit, cfg.TotalBits())
		}
	}
}

func TestRedundancySpares(t *testing.T) {
	levels := map[RedundancyLevel][2]int{
		RedundancyNone: {0, 0},
		RedundancyLow:  {2, 2},
		RedundancyStd:  {4, 4},
		RedundancyHigh: {8, 8},
	}
	for lvl, want := range levels {
		r, c := lvl.Spares()
		if r != want[0] || c != want[1] {
			t.Errorf("%v spares = %d/%d, want %v", lvl, r, c, want)
		}
	}
	if RedundancyLevel(99).String() == "" || RedundancyStd.String() != "std" {
		t.Error("String() broken")
	}
	// Higher redundancy costs area.
	a0 := build(t, Spec{CapacityMbit: 16, InterfaceBits: 64, Redundancy: RedundancyNone})
	a2 := build(t, Spec{CapacityMbit: 16, InterfaceBits: 64, Redundancy: RedundancyHigh})
	if a2.Area.TotalMm2 <= a0.Area.TotalMm2 {
		t.Error("redundancy must cost area")
	}
}

func TestPowerReport(t *testing.T) {
	e := tech.DefaultElectrical()
	ce := power.DefaultCoreEnergy()
	m := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256})

	idle := m.Power(e, ce, 0, 1)
	busy := m.Power(e, ce, 1, 0.9)
	if idle.InterfaceMW != 0 || idle.ActivateMW != 0 || idle.ColumnMW != 0 {
		t.Error("zero utilization must zero the dynamic terms")
	}
	if idle.RefreshMW <= 0 || idle.StandbyMW <= 0 {
		t.Error("refresh and standby persist at idle")
	}
	if busy.TotalMW <= idle.TotalMW {
		t.Error("activity must cost power")
	}
	sum := busy.InterfaceMW + busy.ActivateMW + busy.ColumnMW + busy.RefreshMW + busy.StandbyMW
	if math.Abs(sum-busy.TotalMW) > 1e-9 {
		t.Error("power breakdown must sum to total")
	}
	// Lower hit rate means more activates, hence more power.
	thrash := m.Power(e, ce, 1, 0.1)
	if thrash.ActivateMW <= busy.ActivateMW {
		t.Error("lower hit rate must raise activate power")
	}
	// A busy 16-Mbit macro should sit in the hundreds-of-mW regime
	// (DRAMs are low-power devices, paper §1).
	if busy.TotalMW < 50 || busy.TotalMW > 2000 {
		t.Errorf("busy macro power %.0f mW implausible", busy.TotalMW)
	}
}

func TestFillFrequencyShrinksWithSize(t *testing.T) {
	// Paper §1 footnote 2 + granularity argument: at fixed interface,
	// bigger macros fill less often.
	small := build(t, Spec{CapacityMbit: 4, InterfaceBits: 256})
	large := build(t, Spec{CapacityMbit: 64, InterfaceBits: 256})
	if small.FillFrequencyHz() <= large.FillFrequencyHz() {
		t.Error("fill frequency must fall with capacity")
	}
}

func TestDatasheet(t *testing.T) {
	m := build(t, Spec{CapacityMbit: 16, InterfaceBits: 256, Redundancy: RedundancyStd})
	ds := m.Datasheet()
	for _, want := range []string{"16.00 Mbit", "256 bits", "banks", "Mbit/mm2", "std"} {
		if !strings.Contains(ds, want) {
			t.Errorf("datasheet missing %q:\n%s", want, ds)
		}
	}
}

// Property: every buildable macro has consistent geometry
// (capacity = banks * rows * page) and positive derived metrics.
func TestBuildConsistencyProperty(t *testing.T) {
	f := func(capRaw, ifRaw, bankRaw uint8) bool {
		mbit := 1 << (capRaw % 8) // 1..128
		iface := 16 << (ifRaw % 6)
		banks := 1 << (bankRaw % 3) // 1..4
		m, err := Build(Spec{CapacityMbit: mbit, InterfaceBits: iface, Banks: banks})
		if err != nil {
			return true // rejected configs are fine; we test built ones
		}
		bits := m.Geometry.Banks * m.RowsPerBank() * m.Geometry.PageBits
		if bits != mbit<<20 {
			return false
		}
		return m.PeakBandwidthGBps() > 0 && m.Area.TotalMm2 > 0 && m.ClockMHz > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: peak bandwidth grows monotonically with interface width.
func TestBandwidthMonotoneInWidth(t *testing.T) {
	prev := 0.0
	for iface := 16; iface <= 512; iface *= 2 {
		m, err := Build(Spec{CapacityMbit: 32, InterfaceBits: iface})
		if err != nil {
			t.Fatal(err)
		}
		if bw := m.PeakBandwidthGBps(); bw <= prev {
			t.Fatalf("bandwidth not monotone at width %d", iface)
		} else {
			prev = bw
		}
	}
}

// Envelope sweep: every (capacity, width) point of the §5 concept
// envelope must build, and area/bandwidth must be monotone in the
// obvious directions.
func TestConceptEnvelope(t *testing.T) {
	caps := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	var prevArea float64
	for _, mbit := range caps {
		var rowArea float64
		for iface := 16; iface <= 512; iface *= 2 {
			m, err := Build(Spec{CapacityMbit: mbit, InterfaceBits: iface})
			if err != nil {
				t.Fatalf("%d Mbit x%d: %v", mbit, iface, err)
			}
			if err := m.DeviceConfig().Validate(); err != nil {
				t.Fatalf("%d Mbit x%d: device config: %v", mbit, iface, err)
			}
			if m.Timing.TCKns > 7.01 {
				t.Errorf("%d Mbit x%d: cycle %.2f breaks the <7 ns concept promise", mbit, iface, m.Timing.TCKns)
			}
			rowArea = m.Area.TotalMm2
		}
		if rowArea <= prevArea {
			t.Errorf("%d Mbit: area %.1f not larger than previous capacity's %.1f", mbit, rowArea, prevArea)
		}
		prevArea = rowArea
	}
}

// templateSpecs covers every field a Template reads: defaults, both
// building blocks, explicit banks, redundancy, ECC, a non-default
// process, a clock cap and BIST omitted.
func templateSpecs() []Spec {
	logic := tech.Logic024()
	return []Spec{
		{CapacityMbit: 16, InterfaceBits: 256},
		{CapacityMbit: 1, InterfaceBits: 16},
		{CapacityMbit: 13, InterfaceBits: 64, PageBits: 512},
		{CapacityMbit: 32, InterfaceBits: 128, Banks: 8, BlockBits: geom.Block256K, Redundancy: RedundancyHigh},
		{CapacityMbit: 8, InterfaceBits: 512, Banks: 2, ECC: reliab.ECCSECDED, Redundancy: RedundancyLow},
		{CapacityMbit: 64, InterfaceBits: 32, Process: &logic, TargetClockMHz: 90, SkipBIST: true},
	}
}

// templateRejects are specs NewTemplate refuses (the page-length rules
// are Instantiate's, so none of these is a page error).
var templateRejects = []Spec{
	{InterfaceBits: 64},
	{CapacityMbit: 512, InterfaceBits: 64},
	{CapacityMbit: 16, InterfaceBits: 64, BlockBits: 12345},
	{CapacityMbit: 16, InterfaceBits: 64, Banks: 5},
	{CapacityMbit: 16, InterfaceBits: 1024},
	{CapacityMbit: 16, InterfaceBits: 8},
}

// TestTemplateResetMatchesNewTemplate pins Reset to NewTemplate: the
// same Template for a valid spec, the same error text for a failing
// one, and a Template that failed a Reset (or held another spec) resets
// to exactly a fresh one.
func TestTemplateResetMatchesNewTemplate(t *testing.T) {
	var reused Template
	for _, spec := range templateSpecs() {
		want, err := NewTemplate(spec)
		if err != nil {
			t.Fatalf("NewTemplate(%+v): %v", spec, err)
		}
		var got Template
		if err := got.Reset(spec); err != nil {
			t.Fatalf("Reset(%+v): %v", spec, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("Reset(%+v) = %+v, NewTemplate gives %+v", spec, got, *want)
		}
		for _, bad := range templateRejects {
			if reused.Reset(bad) == nil {
				t.Fatalf("Reset(%+v) should fail", bad)
			}
		}
		if err := reused.Reset(spec); err != nil || !reflect.DeepEqual(&reused, want) {
			t.Fatalf("Reset(%+v) after failed Resets = %+v, %v; want %+v", spec, reused, err, *want)
		}
	}
	for _, bad := range templateRejects {
		_, want := NewTemplate(bad)
		var tmpl Template
		got := tmpl.Reset(bad)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%+v: Reset error %v, NewTemplate error %v", bad, got, want)
		}
	}
}

// TestTemplateResetAllocatesNothing: the sweep refills its templates in
// place, so a Reset to a valid spec must not touch the heap.
func TestTemplateResetAllocatesNothing(t *testing.T) {
	specs := templateSpecs()
	var tmpl Template
	for _, spec := range specs {
		if allocs := testing.AllocsPerRun(50, func() {
			if err := tmpl.Reset(spec); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("Reset(%+v): %.1f allocations, want 0", spec, allocs)
		}
	}
}
