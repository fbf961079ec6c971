// Compilation: lowering a validated scenario document into the
// engine's existing inputs — an edram.Spec candidate plus a
// core.Requirements per explorable level, an sram.Macro per SRAM
// level, and sched-ready client allocations. Nothing downstream knows
// scenarios exist; the compiler meets the engine at the same types the
// HTTP handlers and CLI flags always used.

package scenario

import (
	"fmt"

	"edram/internal/core"
	"edram/internal/edram"
	"edram/internal/reliab"
	"edram/internal/sched"
	"edram/internal/sram"
	"edram/internal/tech"
	"edram/internal/units"
)

// DefaultInterfaceBits is the interface width a level gets when the
// document leaves interface_bits unset: the concept's narrow-middle
// default, wide enough for a word-oriented client, narrow enough that
// the explorer's sweep (which owns the width decision) stays in
// charge.
const DefaultInterfaceBits = 64

// Compiled is a scenario lowered onto the engine's input types.
type Compiled struct {
	// Levels preserves the document's level order.
	Levels []CompiledLevel
	// Policy and the page/reorder options configure the controller for
	// every simulated level.
	Policy        sched.Policy
	PolicyName    string
	ClosedPage    bool
	ReorderWindow int
	// Target indexes the level memsim simulates (-1 = the hierarchy
	// has no edram level).
	Target int
}

// CompiledLevel is one lowered hierarchy level.
type CompiledLevel struct {
	Name string
	Kind string
	// Spec and Requirements are set for edram levels: Spec is the
	// concrete macro candidate the document pins (unset free dimensions
	// left to the template defaults), Requirements is the constraint
	// set the explorer sweeps against.
	Spec         edram.Spec
	Requirements core.Requirements
	// Clients are the workload clients allocated to this level, in
	// document order.
	Clients []ClientSpec
	// SRAM is set for sram levels.
	SRAM *sram.Macro
}

// PeakGBps sums a level's declared port bandwidth.
func (l Level) PeakGBps() float64 {
	return l.ReadGBps + l.WriteGBps
}

// PowerOverheadFactor converts declared array access energy into a
// whole-macro busy-power budget. The pJ/bit numbers in a scenario
// describe the cell-array access alone; the model's busy power also
// carries the periphery, the interface drivers and refresh, which in
// the concept sit an order of magnitude above the array (the default
// 0.24 µm sweep lands near 190 mW per GB/s ≈ 24 pJ/bit total against
// ~1.5 pJ/bit of array energy). The factor sizes the derived cap so it
// still rules out the power-hungry wide/fast corner without outlawing
// every buildable design.
const PowerOverheadFactor = 40

// derivedPowerMW converts a level's declared access energies and port
// bandwidths into a busy-power cap when the constraint set leaves
// max_power_mw unset: 1 GB/s at 1 pJ/bit is 8 mW of array power
// (8 Gbit/s × 1 pJ/s per bit), scaled by PowerOverheadFactor for the
// rest of the macro.
func (l Level) derivedPowerMW() float64 {
	if l.ReadEnergyPJBit <= 0 && l.WriteEnergyPJBit <= 0 {
		return 0
	}
	array := 8 * (l.ReadGBps*l.ReadEnergyPJBit + l.WriteGBps*l.WriteEnergyPJBit)
	return PowerOverheadFactor * array
}

// clientRateGBps sums the demand of the clients allocated to level
// name.
func (s *Scenario) clientRateGBps(name string) float64 {
	var sum float64
	for _, c := range s.Workload.Clients {
		if c.Level == name {
			sum += c.RateGBps
		}
	}
	return sum
}

// requirementsFor lowers one edram level into the explorer's
// constraint set. The sustained-bandwidth requirement is the larger of
// the level's declared port demand and its allocated clients' summed
// rates — the ports say what the level offers, the clients what the
// workload pulls; the explorer must satisfy both.
func (s *Scenario) requirementsFor(l Level) core.Requirements {
	bw := l.PeakGBps()
	if cr := s.clientRateGBps(l.Name); cr > bw {
		bw = cr
	}
	power := s.Constraints.MaxPowerMW
	if power == 0 {
		power = l.derivedPowerMW()
	}
	clock := s.Constraints.MinClockMHz
	if l.TargetClockMHz > clock {
		clock = l.TargetClockMHz
	}
	return core.Requirements{
		CapacityMbit:  l.CapacityMbit,
		BandwidthGBps: bw,
		HitRate:       s.Constraints.HitRate,
		MaxAreaMm2:    s.Constraints.MaxAreaMm2,
		MaxPowerMW:    power,
		MinClockMHz:   clock,
		DefectsPerCm2: s.Constraints.DefectsPerCm2,
	}
}

// interfaceBits is the level's interface width, DefaultInterfaceBits
// when the document leaves it out.
func (l Level) interfaceBits() int {
	if l.InterfaceBits == 0 {
		return DefaultInterfaceBits
	}
	return l.InterfaceBits
}

// specFor lowers one edram level into the concrete macro candidate the
// document pins. Validation has already vetted redundancy/ecc names,
// so the parses cannot fail here.
func (l Level) specFor() edram.Spec {
	red, _ := edram.ParseRedundancy(l.Redundancy)
	ecc, _ := reliab.ParseECC(l.ECC)
	return edram.Spec{
		CapacityMbit:   l.CapacityMbit,
		InterfaceBits:  l.interfaceBits(),
		Banks:          l.Banks,
		PageBits:       l.PageBits,
		BlockBits:      l.BlockKbit * 1024,
		Redundancy:     red,
		ECC:            ecc,
		TargetClockMHz: l.TargetClockMHz,
	}
}

// Compile validates the scenario and lowers it. A document with any
// violation is refused with the same aggregate ViolationsError the
// service's 400 carries.
func (s *Scenario) Compile() (*Compiled, error) {
	if v := s.Violations(0); len(v) > 0 {
		return nil, ViolationsError(v)
	}
	idx := s.levelIndex()
	policy, err := ParsePolicy(s.Workload.Policy)
	if err != nil {
		return nil, err // unreachable after Violations, kept for safety
	}
	out := &Compiled{
		Policy:        policy,
		PolicyName:    policy.String(),
		ClosedPage:    s.Workload.ClosedPage,
		ReorderWindow: s.Workload.ReorderWindow,
		Target:        -1,
	}
	proc := tech.Siemens024()
	for _, l := range s.Hierarchy.Levels {
		cl := CompiledLevel{Name: l.Name, Kind: l.Kind}
		switch l.Kind {
		case "edram":
			cl.Spec = l.specFor()
			cl.Requirements = s.requirementsFor(l)
		case "sram":
			bits := l.CapacityKbit * 1024
			if bits == 0 {
				bits = int(int64(l.CapacityMbit) * units.Mbit)
			}
			cl.SRAM = &sram.Macro{Process: proc, Bits: bits, DataBits: l.interfaceBits()}
		}
		for _, c := range s.Workload.Clients {
			if c.Level == l.Name {
				cl.Clients = append(cl.Clients, c.ClientSpec)
			}
		}
		out.Levels = append(out.Levels, cl)
	}
	// Target: the named level, else the first edram level with clients,
	// else the first edram level.
	if t := s.Workload.Target; t != "" {
		out.Target = idx[t]
	} else {
		for i, cl := range out.Levels {
			if cl.Kind != "edram" {
				continue
			}
			if len(cl.Clients) > 0 {
				out.Target = i
				break
			}
			if out.Target < 0 {
				out.Target = i
			}
		}
	}
	return out, nil
}

// TargetLevel returns the compiled level the simulation targets, or an
// error for an all-SRAM hierarchy.
func (c *Compiled) TargetLevel() (*CompiledLevel, error) {
	if c.Target < 0 || c.Target >= len(c.Levels) {
		return nil, fmt.Errorf("scenario has no edram level to simulate")
	}
	return &c.Levels[c.Target], nil
}
