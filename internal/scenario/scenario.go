// Package scenario is the declarative scenario language of the
// reproduction: a versioned JSON document describing a named memory
// hierarchy (levels with capacity, per-port read/write bandwidth,
// access energy and operand-to-level allocation), a workload (traffic
// clients mapped onto the levels), and a constraint set. Load/Parse
// read a document with strict field checking; Compile lowers it into
// the existing engine inputs — macro edram.Spec candidates,
// core.Requirements per explorable level, and simulator client
// configurations — so new workloads become data, not code.
//
// The same loader backs POST /v1/scenario on edramd, `edramx
// -scenario` and `memsim -scenario`; the corpus under
// examples/scenarios/ is the shared test fixture set. Validation is
// aggregate in the core.Requirements.Violations style: every problem
// in the document is reported in one error, with identical messages
// from the service and the CLIs.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"edram/internal/edram"
	"edram/internal/reliab"
	"edram/internal/sched"
)

// SchemaVersion is the scenario-document (and wire) schema version this
// loader speaks. The canonical-key tag (scn/v1) tracks it: additive
// schema changes keep the version, key-affecting changes bump both (see
// DESIGN.md "Wire-schema versioning").
const SchemaVersion = 1

// Scenario is one declarative scenario document. The JSON names are the
// on-disk file format and the POST /v1/scenario wire schema at once.
type Scenario struct {
	// SchemaVersion pins the document format; required, must equal
	// SchemaVersion.
	SchemaVersion int `json:"schema_version"`
	// Name identifies the scenario; the canonical key renders the full
	// content, so two same-named scenarios with different bodies never
	// alias (the PR 4 cache rule).
	Name string `json:"name"`
	// Description is human documentation; it is the one field excluded
	// from the canonical key (it cannot change any computed result).
	//cachekey:exempt human documentation only; cannot change any computed result
	Description string      `json:"description,omitempty"`
	Hierarchy   Hierarchy   `json:"hierarchy"`
	Workload    Workload    `json:"workload"`
	Constraints Constraints `json:"constraints"`
}

// Hierarchy is the named memory hierarchy: an ordered list of levels
// (file order is compile order — a list, not a map, so no iteration-
// order nondeterminism can leak into responses).
type Hierarchy struct {
	Name   string  `json:"name,omitempty"`
	Levels []Level `json:"levels"`
}

// Level is one memory level of the hierarchy. Kind "edram" levels
// compile to an edram.Spec candidate plus a core.Requirements for the
// design-space explorer; kind "sram" levels compile to a 6T SRAM macro
// summary (the §3 SRAM/DRAM partitioning decision). Unit suffixes are
// part of the field names — the loader rejects unknown spellings, so a
// capacity given in the wrong unit is a load error, not a silent
// misread.
type Level struct {
	Name string `json:"name"`
	// Kind is "edram" or "sram".
	Kind string `json:"kind"`
	// CapacityMbit sizes an edram level (building-block granularity).
	CapacityMbit int `json:"capacity_mbit,omitempty"`
	// CapacityKbit sizes an sram level (sram macros are sub-Mbit).
	CapacityKbit int `json:"capacity_kbit,omitempty"`
	// InterfaceBits is the data interface width (16..512, power of two
	// for edram; the word width for sram).
	InterfaceBits int `json:"interface_bits,omitempty"`
	// Banks, PageBits, BlockKbit, Redundancy, ECC and TargetClockMHz
	// are the edram.Spec free dimensions (zero = auto-derived).
	Banks          int     `json:"banks,omitempty"`
	PageBits       int     `json:"page_bits,omitempty"`
	BlockKbit      int     `json:"block_kbit,omitempty"`
	Redundancy     string  `json:"redundancy,omitempty"`
	ECC            string  `json:"ecc,omitempty"`
	TargetClockMHz float64 `json:"target_clock_mhz,omitempty"`
	// ReadGBps/WriteGBps declare the level's per-port read and write
	// bandwidth demand; the compiled sustained-bandwidth requirement is
	// the larger of this port demand and the allocated clients' sum.
	ReadGBps  float64 `json:"read_gbps,omitempty"`
	WriteGBps float64 `json:"write_gbps,omitempty"`
	// ReadEnergyPJBit/WriteEnergyPJBit declare the level's access
	// energy; with no explicit power cap they derive one
	// (8 mW per GB/s per pJ/bit — see Compile).
	ReadEnergyPJBit  float64 `json:"read_energy_pj_bit,omitempty"`
	WriteEnergyPJBit float64 `json:"write_energy_pj_bit,omitempty"`
	// Operands names the data operands this level holds (the
	// operand-to-level allocation); clients naming an operand must
	// target a level that carries it.
	Operands []string `json:"operands,omitempty"`
	// Below names the next (larger, slower) level this one spills to.
	// References must resolve and the spill chain must be acyclic.
	Below string `json:"below,omitempty"`
}

// Workload is the traffic mix plus the controller configuration the
// simulation runs under.
type Workload struct {
	Clients []Client `json:"clients,omitempty"`
	// Policy is the arbitration scheme by name (see ParsePolicy);
	// "" = round-robin.
	Policy        string `json:"policy,omitempty"`
	ClosedPage    bool   `json:"closed_page,omitempty"`
	ReorderWindow int    `json:"reorder_window,omitempty"`
	// Target names the level `memsim -scenario` simulates; default:
	// the first edram level with allocated clients.
	Target string `json:"target,omitempty"`
}

// Client is one workload client: a ClientSpec allocated to a hierarchy
// level (and optionally to one of the level's operands).
type Client struct {
	ClientSpec
	// Level names the hierarchy level this client hammers (required).
	Level string `json:"level"`
	// Operand optionally names which of the level's operands the
	// client streams; it must be allocated to that level.
	Operand string `json:"operand,omitempty"`
}

// Constraints is the scenario's constraint set, applied to every
// explorable level's requirements.
type Constraints struct {
	// HitRate is the expected page-hit rate of the workload.
	HitRate float64 `json:"hit_rate"`
	// MaxAreaMm2, MaxPowerMW, MinClockMHz cap each level's candidates
	// (0 = unconstrained; a level with declared access energies derives
	// a power cap from them when MaxPowerMW is 0).
	MaxAreaMm2  float64 `json:"max_area_mm2,omitempty"`
	MaxPowerMW  float64 `json:"max_power_mw,omitempty"`
	MinClockMHz float64 `json:"min_clock_mhz,omitempty"`
	// DefectsPerCm2 parameterizes the yield/cost model.
	DefectsPerCm2 float64 `json:"defects_per_cm2,omitempty"`
}

// Parse decodes a scenario document with strict field checking: an
// unknown field (a typo, or a quantity under the wrong unit suffix) is
// an error, not a silently ignored knob. Parse does not validate the
// content — call Violations (or Compile, which refuses invalid
// documents) for that.
func Parse(b []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding document: %w", err)
	}
	if dec.More() {
		return nil, errors.New("scenario: trailing data after JSON document")
	}
	return &s, nil
}

// Load reads and parses a scenario file, then validates it, returning
// the aggregate ViolationsError the service layer produces for the
// same document — one loader, one error vocabulary.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(b)
	if err != nil {
		return nil, err
	}
	if v := s.Violations(0); len(v) > 0 {
		return nil, ViolationsError(v)
	}
	return s, nil
}

// ViolationsError folds a violation list into the single aggregate
// error both the service layer (HTTP 400 body) and the CLIs print.
func ViolationsError(v []string) error {
	return fmt.Errorf("invalid scenario: %s", strings.Join(v, "; "))
}

// levelIndex maps level names to their position; later duplicates are
// not entered (the duplicate itself is reported as a violation).
func (s *Scenario) levelIndex() map[string]int {
	idx := make(map[string]int, len(s.Hierarchy.Levels))
	for i, l := range s.Hierarchy.Levels {
		if _, dup := idx[l.Name]; !dup {
			idx[l.Name] = i
		}
	}
	return idx
}

// validKinds lists the level kinds the loader accepts.
const validKinds = "edram, sram"

// Violations lists every constraint the scenario document violates, in
// document order (empty = valid). maxRequests caps the total simulated
// request count (0 = uncapped) — the service passes its per-request
// limit, the CLIs pass 0.
func (s *Scenario) Violations(maxRequests int64) []string {
	var v []string
	switch {
	case s.SchemaVersion == 0:
		v = append(v, fmt.Sprintf("schema_version is required (this loader speaks %d)", SchemaVersion))
	case s.SchemaVersion != SchemaVersion:
		v = append(v, fmt.Sprintf("unsupported schema_version %d (this loader speaks %d)", s.SchemaVersion, SchemaVersion))
	}
	if s.Name == "" {
		v = append(v, "name is required")
	}
	if len(s.Hierarchy.Levels) == 0 {
		v = append(v, "hierarchy must declare at least one level")
	}
	idx := s.levelIndex()
	seen := make(map[string]bool, len(s.Hierarchy.Levels))
	for i, l := range s.Hierarchy.Levels {
		v = append(v, l.violations(i, idx)...)
		if l.Name != "" && seen[l.Name] {
			v = append(v, fmt.Sprintf("level %d (%s): duplicate level name", i, l.Name))
		}
		seen[l.Name] = true
	}
	v = append(v, s.spillCycles(idx)...)
	v = append(v, s.workloadViolations(idx, maxRequests)...)
	v = append(v, s.constraintViolations(idx)...)
	return v
}

// violations checks one level's own fields; cross-level rules (cycles,
// client references) live on Scenario.
func (l Level) violations(i int, idx map[string]int) []string {
	var v []string
	at := func(format string, args ...any) {
		v = append(v, fmt.Sprintf("level %d (%s): %s", i, l.Name, fmt.Sprintf(format, args...)))
	}
	if l.Name == "" {
		at("name is required")
	}
	switch l.Kind {
	case "edram":
		if l.CapacityMbit <= 0 {
			at("capacity_mbit must be positive, got %d", l.CapacityMbit)
		}
		if l.CapacityKbit != 0 {
			at("capacity_kbit is the sram unit; edram levels are sized in capacity_mbit")
		}
		if l.BlockKbit != 0 && l.BlockKbit != 256 && l.BlockKbit != 1024 {
			at("block_kbit must be 256 or 1024, got %d", l.BlockKbit)
		}
		if l.InterfaceBits != 0 && !validInterface(l.InterfaceBits) {
			at("interface_bits %d outside the concept's 16..512 power-of-two range", l.InterfaceBits)
		}
		if _, err := edram.ParseRedundancy(l.Redundancy); err != nil {
			at("%v", err)
		}
		if _, err := reliab.ParseECC(l.ECC); err != nil {
			at("%v", err)
		}
	case "sram":
		switch {
		case l.CapacityKbit > 0 && l.CapacityMbit != 0:
			at("give capacity_kbit or capacity_mbit, not both")
		case l.CapacityKbit <= 0 && l.CapacityMbit <= 0:
			at("capacity_kbit must be positive, got %d", l.CapacityKbit)
		}
		if l.Banks != 0 || l.PageBits != 0 || l.BlockKbit != 0 || l.Redundancy != "" || l.ECC != "" {
			at("banks, page_bits, block_kbit, redundancy and ecc apply only to edram levels")
		}
	default:
		at("unknown kind %q (%s)", l.Kind, validKinds)
	}
	if l.Banks < 0 || l.PageBits < 0 || l.InterfaceBits < 0 {
		at("geometry fields must be non-negative")
	}
	if l.ReadGBps < 0 || l.WriteGBps < 0 {
		at("port bandwidths must be non-negative, got read %g / write %g GB/s", l.ReadGBps, l.WriteGBps)
	}
	if l.ReadEnergyPJBit < 0 || l.WriteEnergyPJBit < 0 {
		at("access energies must be non-negative, got read %g / write %g pJ/bit", l.ReadEnergyPJBit, l.WriteEnergyPJBit)
	}
	if l.TargetClockMHz < 0 {
		at("target_clock_mhz must be non-negative, got %g", l.TargetClockMHz)
	}
	opSeen := map[string]bool{}
	for _, op := range l.Operands {
		if op == "" {
			at("operand names must be non-empty")
			continue
		}
		if opSeen[op] {
			at("duplicate operand %q", op)
		}
		opSeen[op] = true
	}
	if l.Below != "" {
		if l.Below == l.Name {
			at("level cannot spill to itself")
		} else if _, ok := idx[l.Below]; !ok {
			at("below references unknown level %q", l.Below)
		}
	}
	return v
}

// validInterface reports whether w is a 16..512 power of two.
func validInterface(w int) bool {
	for c := 16; c <= 512; c *= 2 {
		if w == c {
			return true
		}
	}
	return false
}

// spillCycles walks every level's below-chain and reports the first
// cycle each chain closes (each offending level reported once, in
// document order).
func (s *Scenario) spillCycles(idx map[string]int) []string {
	var v []string
	reported := make(map[int]bool)
	for i := range s.Hierarchy.Levels {
		visited := make(map[int]bool)
		path := []string{}
		j := i
		for {
			l := s.Hierarchy.Levels[j]
			visited[j] = true
			path = append(path, l.Name)
			if l.Below == "" || l.Below == l.Name {
				break
			}
			next, ok := idx[l.Below]
			if !ok {
				break
			}
			if visited[next] {
				if !reported[i] {
					v = append(v, fmt.Sprintf("level %d (%s): cyclic below chain: %s -> %s",
						i, s.Hierarchy.Levels[i].Name, strings.Join(path, " -> "), l.Below))
					reported[i] = true
				}
				break
			}
			j = next
		}
	}
	return v
}

// workloadViolations checks the clients and controller options.
func (s *Scenario) workloadViolations(idx map[string]int, maxRequests int64) []string {
	var v []string
	var total int64
	levelNames := make([]string, 0, len(s.Hierarchy.Levels))
	for _, l := range s.Hierarchy.Levels {
		levelNames = append(levelNames, l.Name)
	}
	for i, c := range s.Workload.Clients {
		li, ok := idx[c.Level]
		iface := 0 // no level, no interface to bound the request width by
		if c.Level != "" && ok {
			iface = s.Hierarchy.Levels[li].interfaceBits()
		}
		v = append(v, c.Violations(i, maxRequests, iface)...)
		total += int64(c.Count)
		at := func(format string, args ...any) {
			v = append(v, fmt.Sprintf("client %d (%s): %s", i, c.Name, fmt.Sprintf(format, args...)))
		}
		if c.Level == "" {
			at("level is required (one of: %s)", strings.Join(levelNames, ", "))
			continue
		}
		if !ok {
			at("targets unknown level %q", c.Level)
			continue
		}
		lvl := s.Hierarchy.Levels[li]
		if lvl.Kind != "edram" {
			at("targets %s level %q; simulation clients need an edram level", lvl.Kind, c.Level)
		}
		if c.Operand != "" {
			found := false
			for _, op := range lvl.Operands {
				if op == c.Operand {
					found = true
					break
				}
			}
			if !found {
				at("operand %q is not allocated to level %q (allocated: %s)",
					c.Operand, c.Level, strings.Join(lvl.Operands, ", "))
			}
		}
	}
	if maxRequests > 0 && total > maxRequests {
		v = append(v, fmt.Sprintf("total request count %d exceeds the per-request limit %d", total, maxRequests))
	}
	if _, err := ParsePolicy(s.Workload.Policy); err != nil {
		v = append(v, err.Error())
	}
	if s.Workload.ReorderWindow < 0 {
		v = append(v, fmt.Sprintf("reorder window must be non-negative, got %d", s.Workload.ReorderWindow))
	}
	if t := s.Workload.Target; t != "" {
		if li, ok := idx[t]; !ok {
			v = append(v, fmt.Sprintf("workload target references unknown level %q", t))
		} else if s.Hierarchy.Levels[li].Kind != "edram" {
			v = append(v, fmt.Sprintf("workload target %q is an %s level; simulation needs an edram level",
				t, s.Hierarchy.Levels[li].Kind))
		}
	}
	return v
}

// constraintViolations lowers each edram level into its
// core.Requirements and reports that type's own violations under the
// level's name — the same aggregate messages the explorer's request
// validation produces, so "bandwidth must be positive" reads
// identically whether the input was a scenario file or a raw
// /v1/explore body.
func (s *Scenario) constraintViolations(idx map[string]int) []string {
	var v []string
	checked := 0
	for i, l := range s.Hierarchy.Levels {
		if l.Kind != "edram" || l.CapacityMbit <= 0 {
			continue // structural problems are already reported above
		}
		checked++
		req := s.requirementsFor(l)
		for _, msg := range req.Violations() {
			v = append(v, fmt.Sprintf("level %d (%s): %s", i, l.Name, msg))
		}
	}
	if checked > 0 {
		return v
	}
	// No edram level survived to carry the constraint check (all
	// structurally broken, or an sram-only hierarchy): report the
	// constraint block's own problems directly, in core's vocabulary, so
	// a broken level never masks a broken constraint until a second
	// round-trip.
	c := s.Constraints
	at := func(format string, args ...any) {
		v = append(v, "constraints: "+fmt.Sprintf(format, args...))
	}
	if c.HitRate < 0 || c.HitRate > 1 {
		at("hit rate %g out of [0,1]", c.HitRate)
	}
	if c.MaxAreaMm2 < 0 {
		at("area cap must be non-negative, got %g mm²", c.MaxAreaMm2)
	}
	if c.MaxPowerMW < 0 {
		at("power cap must be non-negative, got %g mW", c.MaxPowerMW)
	}
	if c.MinClockMHz < 0 {
		at("min clock must be non-negative, got %g MHz", c.MinClockMHz)
	}
	if c.DefectsPerCm2 < 0 {
		at("defect density must be non-negative, got %g /cm²", c.DefectsPerCm2)
	}
	return v
}

// ParsePolicy maps an arbitration-policy name to its sched.Policy —
// the one name vocabulary shared by scenario documents, the simulate
// wire schema and the CLIs.
func ParsePolicy(name string) (sched.Policy, error) {
	switch name {
	case "round-robin", "":
		return sched.RoundRobin, nil
	case "fixed-priority", "priority":
		return sched.FixedPriority, nil
	case "oldest-first", "oldest":
		return sched.OldestFirst, nil
	case "open-page-first", "open-page":
		return sched.OpenPageFirst, nil
	case "deadline":
		return sched.Deadline, nil
	default:
		return 0, fmt.Errorf("unknown policy %q (round-robin, fixed-priority, oldest-first, open-page-first, deadline)", name)
	}
}
