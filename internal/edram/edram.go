// Package edram implements the paper's §5 flexible embedded-DRAM
// concept: application-specific memory macros constructed from 256-Kbit
// and 1-Mbit building blocks, with the memory size, interface width
// (16–512 bits), bank count, page length and redundancy level as free
// design parameters.
//
// Build checks a specification against the concept's constraints,
// derives the physical organization, and returns a Macro with area,
// timing, bandwidth and power views plus a dram.Config for event-driven
// simulation — the "first-time-right designs accompanied by all views"
// the paper promises.
package edram

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"edram/internal/dram"
	"edram/internal/geom"
	"edram/internal/power"
	"edram/internal/reliab"
	"edram/internal/tech"
	"edram/internal/timing"
	"edram/internal/units"
)

// RedundancyLevel selects the number of spare rows/columns per building
// block ("different redundancy levels, in order to optimize the yield of
// the memory module to the specific chip", §5).
type RedundancyLevel int

const (
	RedundancyNone RedundancyLevel = iota
	RedundancyLow                  // 2 spare rows + 2 spare columns per block
	RedundancyStd                  // 4 + 4
	RedundancyHigh                 // 8 + 8
)

// Spares returns the per-block spare row and column counts.
func (r RedundancyLevel) Spares() (rows, cols int) {
	switch r {
	case RedundancyLow:
		return 2, 2
	case RedundancyStd:
		return 4, 4
	case RedundancyHigh:
		return 8, 8
	default:
		return 0, 0
	}
}

// String implements fmt.Stringer.
func (r RedundancyLevel) String() string {
	switch r {
	case RedundancyNone:
		return "none"
	case RedundancyLow:
		return "low"
	case RedundancyStd:
		return "std"
	case RedundancyHigh:
		return "high"
	default:
		return fmt.Sprintf("RedundancyLevel(%d)", int(r))
	}
}

// ParseRedundancy maps a level name ("none", "low", "std", "high") to
// its RedundancyLevel.
func ParseRedundancy(s string) (RedundancyLevel, error) {
	switch s {
	case "none", "":
		return RedundancyNone, nil
	case "low":
		return RedundancyLow, nil
	case "std":
		return RedundancyStd, nil
	case "high":
		return RedundancyHigh, nil
	default:
		return RedundancyNone, fmt.Errorf("edram: unknown redundancy level %q (none, low, std, high)", s)
	}
}

// MarshalJSON renders the level by name, keeping the service layer's
// wire schema human-readable and stable across any renumbering.
func (r RedundancyLevel) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON accepts the level name.
func (r *RedundancyLevel) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	lvl, err := ParseRedundancy(s)
	if err != nil {
		return err
	}
	*r = lvl
	return nil
}

// Spec is the designer-facing macro specification. Zero-valued optional
// fields are auto-derived by Build. The JSON names are the wire schema
// of the service layer (internal/service); Redundancy and ECC travel by
// name ("std", "secded"), not by ordinal.
type Spec struct {
	// CapacityMbit is the usable macro capacity. Must be a multiple of
	// the building-block size.
	CapacityMbit int `json:"capacity_mbit"`
	// InterfaceBits is the data interface width, 16..512, power of two.
	InterfaceBits int `json:"interface_bits"`
	// Banks (optional) is the number of independent banks; default 4
	// (or fewer for tiny macros).
	Banks int `json:"banks,omitempty"`
	// PageBits (optional) is the activated page length; default
	// 8x the interface width, capped by the bank's column span.
	PageBits int `json:"page_bits,omitempty"`
	// BlockBits (optional) selects the building block: geom.Block256K
	// or geom.Block1M. Default: 1 Mbit for macros >= 8 Mbit, else
	// 256 Kbit.
	BlockBits int `json:"block_bits,omitempty"`
	// Redundancy selects spare rows/columns per block.
	Redundancy RedundancyLevel `json:"redundancy,omitempty"`
	// ECC selects the per-word code stored alongside the payload; its
	// check bits widen the array (area, cost) and its decoder sits on
	// the read path (see internal/reliab).
	ECC reliab.ECC `json:"ecc,omitempty"`
	// Process (optional) defaults to tech.Siemens024().
	Process *tech.Process `json:"process,omitempty"`
	// TargetClockMHz (optional) caps the interface clock below the
	// array's maximum.
	TargetClockMHz float64 `json:"target_clock_mhz,omitempty"`
	// WithBIST includes the synthesizable BIST controller (default on
	// via Build; set SkipBIST to omit).
	SkipBIST bool `json:"skip_bist,omitempty"`
}

// CanonicalKey is the normalized fingerprint of the spec used by the
// service layer's cache identity (the Requirements.CanonicalKey
// counterpart for the simulate/datasheet endpoints). Formatting rules
// match: integers in base 10, floats in shortest round-trip form, the
// process by its full parameter fingerprint (tech.Process.CanonicalKey;
// absent = default) — the name alone would alias same-named custom
// processes with different parameters.
//
//cachekey:fields v2 Banks,BlockBits,CapacityMbit,ECC,InterfaceBits,PageBits,Process,Redundancy,SkipBIST,TargetClockMHz
func (s Spec) CanonicalKey() string {
	var b strings.Builder
	b.WriteString("spec/v2")
	fmt.Fprintf(&b, "|cap=%d|iface=%d|banks=%d|page=%d|block=%d",
		s.CapacityMbit, s.InterfaceBits, s.Banks, s.PageBits, s.BlockBits)
	b.WriteString("|red=" + s.Redundancy.String())
	b.WriteString("|ecc=" + s.ECC.String())
	if s.Process != nil {
		b.WriteString("|proc=" + s.Process.CanonicalKey())
	}
	b.WriteString("|clk=" + strconv.FormatFloat(s.TargetClockMHz, 'g', -1, 64))
	fmt.Fprintf(&b, "|bist=%t", !s.SkipBIST)
	return b.String()
}

// Macro is a constructed embedded memory module with all views.
type Macro struct {
	Spec     Spec
	Geometry geom.MacroGeometry
	Area     geom.AreaBreakdown
	Timing   tech.SDRAMTiming
	// ClockMHz is the operating interface clock.
	ClockMHz float64
}

// ConceptMaxCapacityMbit is the concept's published upper bound
// ("embedded memory sizes up to at least 128 Mbits"); Build allows up to
// twice that to model the "at least".
const ConceptMaxCapacityMbit = 256

// Build validates the spec, derives the organization and returns the
// macro. It is NewTemplate followed by Instantiate; callers evaluating
// many page-length variants of one spec (the design explorer's sweep)
// should build the Template once and Instantiate per variant.
func Build(spec Spec) (*Macro, error) {
	t, err := NewTemplate(spec)
	if err != nil {
		return nil, err
	}
	return t.Instantiate(spec.PageBits)
}

// Template is the page-length-independent part of a macro build: the
// derived organization, the block timing with its operating clock, and
// the area breakdown — none of which depend on Spec.PageBits (the page
// spans blocks fired in parallel; it changes activation energy and
// row-buffer behaviour, not the floorplan or the block timing).
// Instantiate stamps out the full Macro for one page length; Power
// evaluates one page length without building it. A Template is
// unchanged by Instantiate and Power and safe for concurrent use until
// its next Reset; the design explorer builds one Template per unique
// projection so the sweep's page-length variants share the expensive
// sub-models.
type Template struct {
	spec    Spec // as given to Reset; PageBits replaced per Instantiate
	geo     geom.MacroGeometry
	area    geom.AreaBreakdown
	timing  tech.SDRAMTiming
	clock   float64
	maxPage int // geo.MaxPageBits()
}

// blockTimings is the array timing of each building block, indexed by
// blockIndex. Timing follows the physical building block — wordline and
// bitline lengths are per block; blocks fire in parallel to form the
// page — so it is a pure function of the block size, computed once
// instead of once per template.
var blockTimings = func() (t [2]tech.SDRAMTiming) {
	for i, bits := range [2]int{geom.Block256K, geom.Block1M} {
		g := geom.MacroGeometry{BlockBits: bits}
		tm, err := timing.ArrayTiming(tech.PC100(), timing.Organization{PageBits: g.BlockColumns(), RowsPerBank: g.BlockRows()})
		if err != nil {
			panic(fmt.Sprintf("edram: timing of the %d-bit block: %v", bits, err))
		}
		t[i] = tm
	}
	return t
}()

// blockIndex is the blockTimings index of an offered block size.
func blockIndex(blockBits int) int {
	if blockBits == geom.Block1M {
		return 1
	}
	return 0
}

// BlockClockMHz is the maximum interface clock of a macro built from
// blocks of blockBits, an offered block size (geom.Block256K or
// geom.Block1M): the clock of every template of that block without a
// lower TargetClockMHz.
func BlockClockMHz(blockBits int) float64 {
	return timing.MaxClockMHz(blockTimings[blockIndex(blockBits)])
}

// NewTemplate validates and derives everything about the spec except
// the page length. Spec.PageBits is ignored; its rules are checked by
// Instantiate.
func NewTemplate(spec Spec) (*Template, error) {
	t := new(Template)
	if err := t.Reset(spec); err != nil {
		return nil, err
	}
	return t, nil
}

// Reset is NewTemplate building into caller-provided storage (the
// design explorer keeps one table of Templates per worker and refills
// its slots in place). On success *t is fully overwritten; on error it
// is left untouched. A valid spec allocates nothing.
func (t *Template) Reset(spec Spec) error {
	if spec.CapacityMbit <= 0 {
		return fmt.Errorf("edram: capacity must be positive, got %d Mbit", spec.CapacityMbit)
	}
	if spec.CapacityMbit > ConceptMaxCapacityMbit {
		return fmt.Errorf("edram: capacity %d Mbit exceeds the concept's %d Mbit ceiling",
			spec.CapacityMbit, ConceptMaxCapacityMbit)
	}

	// Building block.
	blockBits := spec.BlockBits
	if blockBits == 0 {
		if spec.CapacityMbit >= 8 {
			blockBits = geom.Block1M
		} else {
			blockBits = geom.Block256K
		}
	}
	if blockBits != geom.Block256K && blockBits != geom.Block1M {
		return fmt.Errorf("edram: block size %d bits not offered (256 Kbit or 1 Mbit)", blockBits)
	}
	capBits := spec.CapacityMbit * units.Mbit
	if capBits%blockBits != 0 {
		return fmt.Errorf("edram: capacity %d Mbit is not a multiple of the %s building block",
			spec.CapacityMbit, units.FormatMbit(units.BitsToMbit(int64(blockBits))))
	}
	blocks := capBits / blockBits

	// Banks: default to the largest count <= 4 that divides the block
	// count (capacities like 13 Mbit have odd block counts).
	banks := spec.Banks
	if banks == 0 {
		for banks = 4; banks > 1; banks-- {
			if banks <= blocks && blocks%banks == 0 {
				break
			}
		}
	}
	if banks < 1 || blocks%banks != 0 {
		return fmt.Errorf("edram: %d banks do not divide %d blocks", banks, blocks)
	}

	g := geom.MacroGeometry{
		BlockBits:     blockBits,
		Blocks:        blocks,
		Banks:         banks,
		InterfaceBits: spec.InterfaceBits,
		WithBIST:      !spec.SkipBIST,
	}
	if spec.Process != nil {
		g.Process = *spec.Process
	} else {
		g.Process = tech.Siemens024()
	}
	g.SpareRowsPerBlock, g.SpareColsPerBlock = spec.Redundancy.Spares()
	g.ECCOverheadFrac = spec.ECC.StorageOverhead(spec.InterfaceBits)

	// The area model never reads PageBits: one validation of everything
	// else covers the area and every page length's geometry.
	area, err := g.AreaSansPage()
	if err != nil {
		return err
	}
	tm := blockTimings[blockIndex(blockBits)]
	clock := timing.MaxClockMHz(tm)
	if spec.TargetClockMHz > 0 && spec.TargetClockMHz < clock {
		clock = spec.TargetClockMHz
		tm.TCKns = units.MHzToNs(clock)
	}

	t.spec = spec
	t.geo = g
	t.area = area
	t.timing = tm
	t.clock = clock
	t.maxPage = g.MaxPageBits()
	return nil
}

// TotalAreaMm2 is the macro area of every instantiation of this
// template (the area model is page-length-independent).
func (t *Template) TotalAreaMm2() float64 { return t.area.TotalMm2 }

// Process is the resolved base process of the template (the spec's, or
// the default when the spec left it nil). The caller must not modify
// it.
func (t *Template) Process() *tech.Process { return &t.geo.Process }

// Geometry is the template's organization with PageBits unset. The
// caller must not modify it.
func (t *Template) Geometry() *geom.MacroGeometry { return &t.geo }

// Timing is the timing of every instantiation (the block timing at the
// operating clock). The caller must not modify it.
func (t *Template) Timing() *tech.SDRAMTiming { return &t.timing }

// ClockMHz is the operating interface clock of every instantiation.
func (t *Template) ClockMHz() float64 { return t.clock }

// Instantiate completes the build for one page length: 0 auto-derives
// the default (8x the interface width, capped by the bank's column
// span), any other value is validated against the geometry. The
// returned Macro is identical to Build of the template's spec with
// PageBits set to pageBits.
func (t *Template) Instantiate(pageBits int) (*Macro, error) {
	m := new(Macro)
	if err := t.InstantiateInto(m, pageBits); err != nil {
		return nil, err
	}
	return m, nil
}

// page resolves a page length: 0 derives the default (8x the interface
// width, capped by the bank's column span).
func (t *Template) page(pageBits int) int {
	if pageBits == 0 {
		return min(t.geo.InterfaceBits*8, t.maxPage)
	}
	return pageBits
}

// PageFits reports whether Instantiate accepts pageBits, by the rule
// ValidatePage applies but without building a geometry or its error.
func (t *Template) PageFits(pageBits int) bool {
	p := t.page(pageBits)
	return p > 0 && p >= t.geo.InterfaceBits && p <= t.maxPage
}

// InstantiateInto is Instantiate writing into caller-provided storage.
// On success *m is fully overwritten; on error it is left untouched.
func (t *Template) InstantiateInto(m *Macro, pageBits int) error {
	g := t.geo
	g.PageBits = t.page(pageBits)
	if err := g.ValidatePage(); err != nil {
		return err
	}
	spec := t.spec
	spec.PageBits = pageBits
	*m = Macro{Spec: spec, Geometry: g, Area: t.area, Timing: t.timing, ClockMHz: t.clock}
	return nil
}

// Power is the Power of the macro Instantiate(pageBits) builds,
// computed from the template without building it: the same formula on
// the same inputs, so the floats are identical. pageBits must fit
// (PageFits).
func (t *Template) Power(pageBits int, e *tech.Electrical, ce *power.CoreEnergy, utilization, hitRate float64) PowerReport {
	return powerAt(&t.geo, t.page(pageBits), t.clock, e, ce, utilization, hitRate)
}

// CapacityMbit returns the usable capacity.
func (m *Macro) CapacityMbit() int { return m.Spec.CapacityMbit }

// PeakBandwidthGBps is the macro's interface peak bandwidth.
func (m *Macro) PeakBandwidthGBps() float64 {
	return units.BandwidthGBps(m.Geometry.InterfaceBits, m.ClockMHz)
}

// FillFrequencyHz is the paper's fill-frequency metric for the macro.
func (m *Macro) FillFrequencyHz() float64 {
	return units.FillFrequencyHz(m.PeakBandwidthGBps(), float64(m.CapacityMbit()))
}

// RowsPerBank returns the logical bank depth in pages.
func (m *Macro) RowsPerBank() int {
	return m.CapacityMbit() * units.Mbit / m.Geometry.Banks / m.Geometry.PageBits
}

// DeviceConfig returns the dram.Config for event-driven simulation.
func (m *Macro) DeviceConfig() dram.Config {
	return dram.Config{
		Banks:       m.Geometry.Banks,
		RowsPerBank: m.RowsPerBank(),
		PageBits:    m.Geometry.PageBits,
		DataBits:    m.Geometry.InterfaceBits,
		Timing:      m.Timing,
		AutoRefresh: true,
	}
}

// PowerReport breaks down macro power at an operating point.
type PowerReport struct {
	InterfaceMW float64
	ActivateMW  float64
	ColumnMW    float64
	RefreshMW   float64
	StandbyMW   float64
	TotalMW     float64
}

// Power evaluates the macro at the given utilization (fraction of clocks
// carrying transfers) and page-hit rate.
func (m *Macro) Power(e tech.Electrical, ce power.CoreEnergy, utilization, hitRate float64) PowerReport {
	return powerAt(&m.Geometry, m.Geometry.PageBits, m.ClockMHz, &e, &ce, utilization, hitRate)
}

// powerAt is the one macro power formula, behind Macro.Power and
// Template.Power: geometry g with a page of pageBits, clocked at
// clockMHz. The capacity is the geometry's (blocks × block size, which
// Reset derives from the spec's capacity exactly).
func powerAt(g *geom.MacroGeometry, pageBits int, clockMHz float64, e *tech.Electrical, ce *power.CoreEnergy, utilization, hitRate float64) PowerReport {
	utilization = units.Clamp(utilization, 0, 1)
	hitRate = units.Clamp(hitRate, 0, 1)

	var r PowerReport
	r.InterfaceMW = power.InterfacePowerMW(g.InterfaceBits, e.OnChipLoadPF, g.Process.VddDRAMV, clockMHz*utilization, e.SwitchingActivity)

	accessesPerSec := clockMHz * 1e6 * utilization
	activatesPerSec := accessesPerSec * (1 - hitRate)
	r.ActivateMW = activatesPerSec * ce.ActivateEnergyPJ(pageBits) * 1e-9 // pJ/s -> mW
	bitsPerSec := accessesPerSec * float64(g.InterfaceBits)
	r.ColumnMW = bitsPerSec * ce.ColumnPJPerBit * 1e-9

	totalBits := g.TotalBits()
	r.RefreshMW = ce.RefreshPowerMW(totalBits, pageBits, g.Process.RetentionMs)
	r.StandbyMW = ce.StandbyPowerMW(totalBits)
	r.TotalMW = r.InterfaceMW + r.ActivateMW + r.ColumnMW + r.RefreshMW + r.StandbyMW
	return r
}

// Datasheet renders the macro's views as a human-readable block.
func (m *Macro) Datasheet() string {
	var b strings.Builder
	g := m.Geometry
	fmt.Fprintf(&b, "Embedded DRAM macro (%s)\n", g.Process.Name)
	fmt.Fprintf(&b, "  capacity        : %s (%d x %s blocks)\n",
		units.FormatMbit(float64(m.CapacityMbit())), g.Blocks,
		units.FormatMbit(units.BitsToMbit(int64(g.BlockBits))))
	fmt.Fprintf(&b, "  organization    : %d banks x %d pages x %d bits/page\n",
		g.Banks, m.RowsPerBank(), g.PageBits)
	fmt.Fprintf(&b, "  interface       : %d bits @ %.0f MHz\n", g.InterfaceBits, m.ClockMHz)
	fmt.Fprintf(&b, "  peak bandwidth  : %s\n", units.FormatGBps(m.PeakBandwidthGBps()))
	fmt.Fprintf(&b, "  fill frequency  : %.0f /s\n", m.FillFrequencyHz())
	fmt.Fprintf(&b, "  area            : %.2f mm2 (%.2f Mbit/mm2)\n", m.Area.TotalMm2, m.Area.EfficiencyMbitPerMm2)
	if fp, err := g.Floorplan(); err == nil {
		fmt.Fprintf(&b, "  floorplan       : %.2f x %.2f mm, %dx%d blocks, %.2f mm interface wire\n",
			fp.WidthMm, fp.HeightMm, fp.GridCols, fp.GridRows, fp.InterfaceWireMm)
	}
	fmt.Fprintf(&b, "  cycle time      : %.2f ns (tRCD %.1f, tRP %.1f, tRC %.1f)\n",
		m.Timing.TCKns, m.Timing.TRCDns, m.Timing.TRPns, m.Timing.TRCns)
	fmt.Fprintf(&b, "  redundancy      : %s (%d+%d spares/block)\n",
		m.Spec.Redundancy, g.SpareRowsPerBlock, g.SpareColsPerBlock)
	fmt.Fprintf(&b, "  ECC             : %s (%d check bits/word, %.1f%% storage, %.2f mm2)\n",
		m.Spec.ECC, m.Spec.ECC.CheckBits(g.InterfaceBits),
		100*g.ECCOverheadFrac, m.Area.ECCMm2)
	fmt.Fprintf(&b, "  BIST            : %v\n", g.WithBIST)
	return b.String()
}
