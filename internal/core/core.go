// Package core implements the paper's primary contribution as a usable
// tool: systematic exploration of the embedded-memory design space. The
// paper's §3 lists the free dimensions — number of banks, page length,
// word/interface width, building-block size, redundancy level, base
// process — and argues that "it is incumbent upon eDRAM suppliers to
// make the trade-offs transparent and to quantize the design space into
// a set of understandable if slightly sub-optimal solutions". Explore
// enumerates the space, evaluates every candidate through the area,
// timing, power, yield and cost models, filters by the application's
// constraints, extracts the Pareto frontier, and quantizes it into named
// recommendations.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"edram/internal/cost"
	"edram/internal/edram"
	"edram/internal/power"
	"edram/internal/tech"
	"edram/internal/units"
)

// Requirements captures what the application needs from the memory.
// The JSON names are the wire schema of the service layer
// (internal/service) and of edramx -json; they are stable.
type Requirements struct {
	// CapacityMbit of usable storage.
	CapacityMbit int `json:"capacity_mbit"`
	// BandwidthGBps of *sustained* bandwidth under the expected access
	// mix.
	BandwidthGBps float64 `json:"bandwidth_gbps"`
	// HitRate is the expected page-hit rate of the workload (used by
	// the closed-form sustained-bandwidth estimate).
	HitRate float64 `json:"hit_rate"`
	// MaxAreaMm2 caps the macro area (0 = unconstrained).
	MaxAreaMm2 float64 `json:"max_area_mm2,omitempty"`
	// MaxPowerMW caps the macro's busy power (0 = unconstrained).
	MaxPowerMW float64 `json:"max_power_mw,omitempty"`
	// MinClockMHz requires the macro interface to reach at least this
	// clock (0 = unconstrained).
	MinClockMHz float64 `json:"min_clock_mhz,omitempty"`
	// Processes optionally widens the exploration to several base
	// processes (§3's DRAM-based / logic-based / merged choice); empty
	// means the default DRAM-based eDRAM process.
	Processes []tech.Process `json:"processes,omitempty"`
	// DefectsPerCm2 parameterizes the yield/cost model.
	DefectsPerCm2 float64 `json:"defects_per_cm2,omitempty"`
}

// Violations lists every constraint the requirements violate, in field
// order (empty = valid). Callers that can only surface one error should
// use Validate, which folds the whole list into a single message.
func (r Requirements) Violations() []string {
	var v []string
	if r.CapacityMbit <= 0 {
		v = append(v, fmt.Sprintf("capacity must be positive, got %d Mbit", r.CapacityMbit))
	}
	if r.BandwidthGBps <= 0 {
		v = append(v, fmt.Sprintf("bandwidth must be positive, got %g GB/s", r.BandwidthGBps))
	}
	if r.HitRate < 0 || r.HitRate > 1 {
		v = append(v, fmt.Sprintf("hit rate %g out of [0,1]", r.HitRate))
	}
	if r.MaxAreaMm2 < 0 {
		v = append(v, fmt.Sprintf("area cap must be non-negative, got %g mm²", r.MaxAreaMm2))
	}
	if r.MaxPowerMW < 0 {
		v = append(v, fmt.Sprintf("power cap must be non-negative, got %g mW", r.MaxPowerMW))
	}
	if r.MinClockMHz < 0 {
		v = append(v, fmt.Sprintf("min clock must be non-negative, got %g MHz", r.MinClockMHz))
	}
	if r.DefectsPerCm2 < 0 {
		v = append(v, fmt.Sprintf("defect density must be non-negative, got %g /cm²", r.DefectsPerCm2))
	}
	return v
}

// Validate checks the requirements, reporting every violation (not just
// the first) in one error so the CLI and the service layer surface
// identical, complete messages.
func (r Requirements) Validate() error {
	if v := r.Violations(); len(v) > 0 {
		return fmt.Errorf("core: invalid requirements: %s", strings.Join(v, "; "))
	}
	return nil
}

// CanonicalKey is the normalized fingerprint of the requirements used
// as the service layer's cache and coalescing identity: two requests
// describing the same exploration produce the same key no matter how
// their JSON was spelled. Normalization is purely formatting — integers
// in base 10, floats in shortest round-trip form, processes by their
// full parameter fingerprint (tech.Process.CanonicalKey — the name
// alone would alias same-named but differently-parameterized custom
// processes) in declared order (order changes the sweep's enumeration
// sequence, so it is part of the identity).
//
//cachekey:fields v2 BandwidthGBps,CapacityMbit,DefectsPerCm2,HitRate,MaxAreaMm2,MaxPowerMW,MinClockMHz,Processes
func (r Requirements) CanonicalKey() string {
	var b strings.Builder
	b.WriteString("req/v2")
	fmt.Fprintf(&b, "|cap=%d", r.CapacityMbit)
	b.WriteString("|bw=" + canonFloat(r.BandwidthGBps))
	b.WriteString("|hit=" + canonFloat(r.HitRate))
	b.WriteString("|area=" + canonFloat(r.MaxAreaMm2))
	b.WriteString("|power=" + canonFloat(r.MaxPowerMW))
	b.WriteString("|clock=" + canonFloat(r.MinClockMHz))
	b.WriteString("|defects=" + canonFloat(r.DefectsPerCm2))
	if len(r.Processes) > 0 {
		keys := make([]string, len(r.Processes))
		for i, p := range r.Processes {
			keys[i] = p.CanonicalKey()
		}
		b.WriteString("|procs=" + strings.Join(keys, ","))
	}
	return b.String()
}

// StructuralKey fingerprints the requirement fields that shape the
// design space itself — the enumeration (CapacityMbit, Processes) and
// the per-point metric values (HitRate feeds the sustained-bandwidth
// model, DefectsPerCm2 the cost model). Two requirements with equal
// structural keys differ at most in the four pure constraint values
// (BandwidthGBps, MaxAreaMm2, MaxPowerMW, MinClockMHz), which only
// re-classify feasibility of unchanged candidates — the delta
// re-exploration eligibility rule (DESIGN.md §6). Formatting matches
// CanonicalKey so the structural key is a sub-projection of it.
func (r Requirements) StructuralKey() string {
	var b strings.Builder
	b.WriteString("reqstruct/v1")
	fmt.Fprintf(&b, "|cap=%d", r.CapacityMbit)
	b.WriteString("|hit=" + canonFloat(r.HitRate))
	b.WriteString("|defects=" + canonFloat(r.DefectsPerCm2))
	if len(r.Processes) > 0 {
		keys := make([]string, len(r.Processes))
		for i, p := range r.Processes {
			keys[i] = p.CanonicalKey()
		}
		b.WriteString("|procs=" + strings.Join(keys, ","))
	}
	return b.String()
}

// canonFloat renders a float in its shortest exact round-trip form, the
// canonical-key formatting rule shared with edram.Spec.CanonicalKey.
func canonFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Candidate is one evaluated point of the design space.
type Candidate struct {
	// Seq is the candidate's position in canonical enumeration order
	// (assigned by the sweep); it makes results comparable across runs no
	// matter which worker evaluated them.
	Seq   int
	Spec  edram.Spec
	Macro *edram.Macro
	// Macros is the number of identical macros the capacity is split
	// across (each with its own independent interface) — the
	// "interface organization" dimension of paper §3.
	Macros int
	// Evaluated metrics.
	AreaMm2       float64
	PowerMW       float64
	PeakGBps      float64
	SustainedGBps float64
	DieYield      float64
	CostUSD       float64 // macro die-cost share per good die
	// CostPerMbitUSD normalizes CostUSD by the usable capacity, making
	// the ECC and redundancy area overheads comparable across points.
	CostPerMbitUSD float64
	// Feasible is true when every requirement is met; Reasons lists
	// the violated constraints otherwise.
	Feasible bool
	Reasons  []string
}

// SustainedEstimate is the closed-form sustained-bandwidth model: a hit
// proceeds at the interface cycle; a miss pays the row cycle amortized
// over the banks that can overlap their activations, but never less
// than the activation path (tRCD) the in-order controller serializes,
// plus the transfer cycle. Validated against the event-driven simulator
// in ablation A3.
func SustainedEstimate(m *edram.Macro, hitRate float64) float64 {
	return sustainedGBps(&m.Timing, m.Geometry.Banks, m.Geometry.InterfaceBits, m.ClockMHz, hitRate)
}

// sustainedGBps is the one sustained-bandwidth formula, behind
// SustainedEstimate and the sweep's template-measured records: timing
// tm with banks overlapping their activations, behind an interface of
// ifaceBits at clockMHz.
func sustainedGBps(tm *tech.SDRAMTiming, banks, ifaceBits int, clockMHz, hitRate float64) float64 {
	hitRate = units.Clamp(hitRate, 0, 1)
	nb := float64(banks)
	perHit := tm.TCKns
	rowShare := tm.TRCns / nb
	if rowShare < tm.TRCDns {
		rowShare = tm.TRCDns
	}
	missPenalty := rowShare + tm.TCKns
	avg := hitRate*perHit + (1-hitRate)*missPenalty
	if avg <= 0 {
		return 0
	}
	return units.BandwidthGBps(ifaceBits, clockMHz) * perHit / avg
}

// repairFractionFor maps redundancy level to the fraction of
// memory-defective dies the spares recover (calibrated against the
// yield package's Monte-Carlo results for typical defect clusters).
func repairFractionFor(level edram.RedundancyLevel) float64 {
	switch level {
	case edram.RedundancyLow:
		return 0.70
	case edram.RedundancyStd:
		return 0.90
	case edram.RedundancyHigh:
		return 0.97
	default:
		return 0
	}
}

// evaluate builds and scores one spec, replicated over `macros`
// identical instances that share the load. It is the unmemoized
// reference path; the explore engine runs the byte-identical
// evalMemo.evaluate and evalMemo.candidate (see memo.go).
func evaluate(spec edram.Spec, macros int, req *Requirements, e *tech.Electrical, ce *power.CoreEnergy) (Candidate, error) {
	if macros < 1 {
		macros = 1
	}
	m, err := edram.Build(spec)
	if err != nil {
		return Candidate{}, err
	}
	dieCost, yieldEff, err := cost.MacroDieCost(&m.Geometry.Process, 0,
		float64(macros)*m.Area.TotalMm2, req.DefectsPerCm2, repairFractionFor(spec.Redundancy))
	if err != nil {
		return Candidate{}, err
	}
	return scoreCandidate(spec, macros, m, req, e, ce, dieCost, yieldEff), nil
}

// pointEval is the evaluation record of one built sweep point: the
// exact metric floats every feasibility comparison and dominance test
// reads. It is all a sweep's workers emit, all a Pareto front scans
// and all a DeltaState retains; everything else about the candidate is
// rebuilt on demand from its Seq (evalMemo.candidate, byte-identical).
type pointEval struct {
	seq                                 int
	area, power, cost, sustained, clock float64
}

// recordOf is a candidate's evaluation record (clock 0 when it carries
// no Macro; no dominance test or canonical order reads the clock).
func recordOf(c *Candidate) pointEval {
	ev := pointEval{c.Seq, c.AreaMm2, c.PowerMW, c.CostUSD, c.SustainedGBps, 0}
	if c.Macro != nil {
		ev.clock = c.Macro.ClockMHz
	}
	return ev
}

// measure is the record of a macro built for one point: the metrics of
// `macros` identical instances sharing the load. The sweep measures its
// points from their templates instead (evalMemo.record), through the
// same power and sustained-bandwidth helpers.
func measure(seq int, m *edram.Macro, macros int, req *Requirements, e *tech.Electrical, ce *power.CoreEnergy, dieCostUSD float64) pointEval {
	n := float64(macros)
	return pointEval{
		seq:       seq,
		area:      n * m.Area.TotalMm2,
		power:     n * m.Power(*e, *ce, 1.0, req.HitRate).TotalMW,
		cost:      dieCostUSD,
		sustained: n * SustainedEstimate(m, req.HitRate),
		clock:     m.ClockMHz,
	}
}

// The feasibility constraints, one bit each of a violation mask.
const (
	violBandwidth uint8 = 1 << iota
	violArea
	violPower
	violClock
)

// violations is the one feasibility test: the mask of the constraints
// the record misses (0 = feasible).
func violations(ev *pointEval, req *Requirements) uint8 {
	var v uint8
	if ev.sustained < req.BandwidthGBps {
		v |= violBandwidth
	}
	if req.MaxAreaMm2 > 0 && ev.area > req.MaxAreaMm2 {
		v |= violArea
	}
	if req.MaxPowerMW > 0 && ev.power > req.MaxPowerMW {
		v |= violPower
	}
	if req.MinClockMHz > 0 && ev.clock < req.MinClockMHz {
		v |= violClock
	}
	return v
}

// reasons words a violation mask, one message per violated constraint
// in mask order (nil for a feasible record).
func reasons(ev *pointEval, req *Requirements, v uint8) []string {
	var out []string
	if v&violBandwidth != 0 {
		out = append(out, failReason("sustained ", ev.sustained, " GB/s < required ", req.BandwidthGBps, 2))
	}
	if v&violArea != 0 {
		out = append(out, failReason("area ", ev.area, " mm² > cap ", req.MaxAreaMm2, 1))
	}
	if v&violPower != 0 {
		out = append(out, failReason("power ", ev.power, " mW > cap ", req.MaxPowerMW, 0))
	}
	if v&violClock != 0 {
		out = append(out, failReason("clock ", ev.clock, " MHz < required ", req.MinClockMHz, 0))
	}
	return out
}

// scoreCandidate assembles the full candidate from a built macro and
// its die-cost results — the shared tail of the unmemoized evaluate and
// the sweep's evalMemo.candidate, so the two paths cannot drift apart.
func scoreCandidate(spec edram.Spec, macros int, m *edram.Macro, req *Requirements, e *tech.Electrical, ce *power.CoreEnergy, dieCostUSD, dieYield float64) Candidate {
	ev := measure(0, m, macros, req, e, ce, dieCostUSD)
	v := violations(&ev, req)
	return Candidate{
		Spec:           spec,
		Macro:          m,
		Macros:         macros,
		AreaMm2:        ev.area,
		PowerMW:        ev.power,
		PeakGBps:       float64(macros) * m.PeakBandwidthGBps(),
		SustainedGBps:  ev.sustained,
		DieYield:       dieYield,
		CostUSD:        dieCostUSD,
		CostPerMbitUSD: cost.CostPerMbitUSD(dieCostUSD, float64(req.CapacityMbit)),
		Feasible:       v == 0,
		Reasons:        reasons(&ev, req, v),
	}
}

// failReason renders one "<pre><have><mid><want>" infeasibility message
// with both values at fixed precision. It is fmt.Sprintf("%s%.Pf%s%.Pf")
// minus fmt's formatting machinery — the sweep evaluates thousands of
// infeasible candidates per explore and the Sprintf calls used to be
// its largest single CPU item. strconv.AppendFloat('f', prec) emits the
// same bytes %.Pf would (TestFailReasonMatchesSprintf pins this).
func failReason(pre string, have float64, mid string, want float64, prec int) string {
	buf := make([]byte, 0, 64)
	buf = append(buf, pre...)
	buf = strconv.AppendFloat(buf, have, 'f', prec, 64)
	buf = append(buf, mid...)
	buf = strconv.AppendFloat(buf, want, 'f', prec, 64)
	return string(buf)
}

// Explore enumerates the §3 design space for the requirements: interface
// widths 16..512, bank counts 1..8, page lengths (4x..16x interface),
// both building blocks and all redundancy levels. It returns every
// buildable candidate, feasible or not, in canonical enumeration order.
//
// Explore is a compatibility wrapper over the engine; new code should
// prefer SweepContext or ExploreContext, which add cancellation, a
// worker pool, and progress/observer hooks.
func Explore(req Requirements) ([]Candidate, error) {
	// The observer sees the built points in Seq order, so appending
	// keeps canonical order; SweepCount bounds them, so the one
	// allocation never grows.
	out := make([]Candidate, 0, SweepCount(req))
	res, err := SweepContext(context.Background(), req, WithObserver(func(c Candidate) { out = append(out, c) }))
	if err != nil {
		return nil, err
	}
	if res.Built == 0 {
		return nil, fmt.Errorf("core: no buildable configuration for %+v", req)
	}
	return out, nil
}

// Feasible filters to the candidates meeting every requirement.
func Feasible(cands []Candidate) []Candidate {
	var out []Candidate
	for _, c := range cands {
		if c.Feasible {
			out = append(out, c)
		}
	}
	return out
}

// dominates is the one dominance test: whether record a is at least as
// good as b on (area, power, cost, -sustained) and strictly better
// somewhere. The strictly-worse test runs first: on a healthy front most
// comparisons are between mutually non-dominated records, and those
// exit on the first objective where b wins.
func dominates(a, b *pointEval) bool {
	if a.area > b.area || a.power > b.power ||
		a.cost > b.cost || a.sustained < b.sustained {
		return false
	}
	return a.area < b.area || a.power < b.power ||
		a.cost < b.cost || a.sustained > b.sustained
}

// Pareto extracts the non-dominated candidates (objectives: minimize
// area, power and cost; maximize sustained bandwidth), sorted by area.
// It is the batch definition of the front, by pairs of records.
func Pareto(cands []Candidate) []Candidate {
	recs := make([]pointEval, len(cands))
	for i := range cands {
		recs[i] = recordOf(&cands[i])
	}
	var front []Candidate
	for i := range recs {
		dominated := false
		for j := range recs {
			if i != j && dominates(&recs[j], &recs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, cands[i])
		}
	}
	sort.Slice(front, func(i, j int) bool { return front[i].AreaMm2 < front[j].AreaMm2 })
	return front
}

// Recommendation is one quantized solution with a role label — the
// paper's "set of understandable if slightly sub-optimal solutions".
type Recommendation struct {
	Role string
	Candidate
}

// Recommend explores the space and quantizes the feasible Pareto
// frontier into at most four named configurations.
//
// Recommend is a compatibility wrapper over the streaming engine; new
// code should prefer RecommendContext.
func Recommend(req Requirements) ([]Recommendation, error) {
	return RecommendContext(context.Background(), req)
}

// Validation is the outcome of checking a candidate against the
// event-driven simulator (the A3 ablation applied to one design point).
type Validation struct {
	ModelGBps     float64
	SimulatedGBps float64
	SimHitRate    float64
	// Agreement = min(model,sim)/max(model,sim).
	Agreement float64
	// MeetsRequirement is true when the simulated sustained bandwidth
	// (per macro, scaled by the macro count) covers the requirement.
	MeetsRequirement bool
}

// ValidateBySimulation replays a standard three-client contention mix on
// the candidate's device configuration and compares the measured
// sustained bandwidth with the closed-form estimate the explorer used.
// The simulation hook is injected (internal/sched provides it) to keep
// the package dependency-light; see Experiments A3 for the calibration.
type SimulateFunc func(devTotalGBpsDemand float64, c Candidate) (sustainedGBps, hitRate float64, err error)

// ValidateBySimulation runs the injected simulator against the candidate.
func ValidateBySimulation(c Candidate, req Requirements, sim SimulateFunc) (Validation, error) {
	if sim == nil {
		return Validation{}, fmt.Errorf("core: nil simulator")
	}
	if err := req.Validate(); err != nil {
		return Validation{}, err
	}
	perMacroDemand := req.BandwidthGBps / float64(max(1, c.Macros))
	simGB, hit, err := sim(perMacroDemand, c)
	if err != nil {
		return Validation{}, err
	}
	v := Validation{
		ModelGBps:     SustainedEstimate(c.Macro, hit) * float64(max(1, c.Macros)),
		SimulatedGBps: simGB * float64(max(1, c.Macros)),
		SimHitRate:    hit,
	}
	lo, hi := v.ModelGBps, v.SimulatedGBps
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 0 {
		v.Agreement = lo / hi
	}
	v.MeetsRequirement = v.SimulatedGBps >= req.BandwidthGBps
	return v, nil
}
