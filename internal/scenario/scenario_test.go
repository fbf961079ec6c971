package scenario

import (
	"fmt"
	"strings"
	"testing"

	"edram/internal/sched"
)

// validDoc is a minimal two-level scenario exercising both kinds,
// operands, a below reference and a client allocation.
const validDoc = `{
  "schema_version": 1,
  "name": "test-scn",
  "description": "ignored by the key",
  "hierarchy": {
    "name": "h",
    "levels": [
      {"name": "cache", "kind": "sram", "capacity_kbit": 256, "interface_bits": 64, "below": "store"},
      {"name": "store", "kind": "edram", "capacity_mbit": 16, "interface_bits": 64,
       "operands": ["frames"], "read_gbps": 1.0, "write_gbps": 0.5,
       "read_energy_pj_bit": 1.5, "write_energy_pj_bit": 1.8}
    ]
  },
  "workload": {
    "policy": "open-page-first",
    "reorder_window": 8,
    "clients": [
      {"name": "stream", "kind": "sequential", "level": "store", "operand": "frames",
       "rate_gbps": 0.8, "count": 100}
    ]
  },
  "constraints": {"hit_rate": 0.8, "defects_per_cm2": 0.8}
}`

func mustParse(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseValidDocument(t *testing.T) {
	s := mustParse(t, validDoc)
	if v := s.Violations(0); len(v) != 0 {
		t.Fatalf("valid document reported violations: %v", v)
	}
	if s.Name != "test-scn" || len(s.Hierarchy.Levels) != 2 {
		t.Fatalf("unexpected parse result: %+v", s)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	// capacity_mb is neither unit spelling the schema accepts: a typo'd
	// or wrong-unit field must be a load error, not an ignored knob.
	doc := strings.Replace(validDoc, `"capacity_mbit": 16`, `"capacity_mb": 16`, 1)
	if _, err := Parse([]byte(doc)); err == nil {
		t.Fatal("unknown field capacity_mb accepted")
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(validDoc + "{}")); err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestViolationsUnitSuffixMismatch(t *testing.T) {
	// capacity_kbit is a real field — but the sram unit; using it on an
	// edram level is a semantic unit mismatch reported by validation.
	doc := strings.Replace(validDoc, `"capacity_mbit": 16`, `"capacity_mbit": 16, "capacity_kbit": 64`, 1)
	s := mustParse(t, doc)
	v := s.Violations(0)
	if !containsSubstring(v, "capacity_kbit is the sram unit") {
		t.Fatalf("unit mismatch not reported: %v", v)
	}
}

func TestViolationsAbsentBelowReference(t *testing.T) {
	doc := strings.Replace(validDoc, `"below": "store"`, `"below": "nonexistent"`, 1)
	s := mustParse(t, doc)
	if v := s.Violations(0); !containsSubstring(v, `below references unknown level "nonexistent"`) {
		t.Fatalf("absent reference not reported: %v", v)
	}
}

func TestViolationsCyclicBelowChain(t *testing.T) {
	doc := strings.Replace(validDoc,
		`"operands": ["frames"],`,
		`"operands": ["frames"], "below": "cache",`, 1)
	s := mustParse(t, doc)
	if v := s.Violations(0); !containsSubstring(v, "cyclic below chain") {
		t.Fatalf("cycle not reported: %v", v)
	}
}

func TestViolationsSelfSpill(t *testing.T) {
	doc := strings.Replace(validDoc, `"below": "store"`, `"below": "cache"`, 1)
	s := mustParse(t, doc)
	if v := s.Violations(0); !containsSubstring(v, "cannot spill to itself") {
		t.Fatalf("self-spill not reported: %v", v)
	}
}

func TestViolationsSchemaVersion(t *testing.T) {
	missing := strings.Replace(validDoc, `"schema_version": 1,`, "", 1)
	if v := mustParse(t, missing).Violations(0); !containsSubstring(v, "schema_version is required") {
		t.Fatalf("missing version not reported: %v", v)
	}
	wrong := strings.Replace(validDoc, `"schema_version": 1`, `"schema_version": 99`, 1)
	if v := mustParse(t, wrong).Violations(0); !containsSubstring(v, "unsupported schema_version 99") {
		t.Fatalf("wrong version not reported: %v", v)
	}
}

func TestViolationsAggregateEverything(t *testing.T) {
	// One document, many problems: every violation must surface in a
	// single pass (the core.Requirements aggregate style).
	doc := `{
	  "schema_version": 3,
	  "hierarchy": {"levels": [
	    {"name": "a", "kind": "flash", "capacity_mbit": 1},
	    {"name": "a", "kind": "edram", "capacity_mbit": -4, "interface_bits": 48}
	  ]},
	  "workload": {
	    "policy": "whatever",
	    "clients": [{"name": "", "kind": "laser", "level": "missing", "rate_gbps": -1, "count": 0}]
	  },
	  "constraints": {"hit_rate": 1.5}
	}`
	s := mustParse(t, doc)
	v := s.Violations(0)
	for _, want := range []string{
		"unsupported schema_version 3",
		"name is required",
		`unknown kind "flash"`,
		"duplicate level name",
		"capacity_mbit must be positive",
		"interface_bits 48 outside",
		`unknown kind "laser"`,
		"rate must be positive",
		"count must be positive",
		`targets unknown level "missing"`,
		`unknown policy "whatever"`,
		// No edram level survives to carry the constraint check, but the
		// broken constraint still surfaces in the same pass.
		"constraints: hit rate 1.5 out of [0,1]",
	} {
		if !containsSubstring(v, want) {
			t.Errorf("violation %q missing from %v", want, v)
		}
	}
}

func TestViolationsOperandAllocation(t *testing.T) {
	doc := strings.Replace(validDoc, `"operand": "frames"`, `"operand": "weights"`, 1)
	s := mustParse(t, doc)
	if v := s.Violations(0); !containsSubstring(v, `operand "weights" is not allocated to level "store"`) {
		t.Fatalf("operand misallocation not reported: %v", v)
	}
}

func TestViolationsClientOnSRAMLevel(t *testing.T) {
	doc := strings.Replace(validDoc, `"level": "store"`, `"level": "cache"`, 1)
	s := mustParse(t, doc)
	if v := s.Violations(0); !containsSubstring(v, "simulation clients need an edram level") {
		t.Fatalf("sram-targeted client not reported: %v", v)
	}
}

func TestViolationsRequestCap(t *testing.T) {
	s := mustParse(t, validDoc)
	if v := s.Violations(50); !containsSubstring(v, "exceeds the per-request limit 50") {
		t.Fatalf("request cap not enforced: %v", v)
	}
}

func TestCanonicalKeyContentNotName(t *testing.T) {
	// The PR 4 rule: two same-named scenarios with different content
	// must never alias in the cache.
	a := mustParse(t, validDoc)
	b := mustParse(t, strings.Replace(validDoc, `"capacity_mbit": 16`, `"capacity_mbit": 32`, 1))
	if a.CanonicalKey() == b.CanonicalKey() {
		t.Fatal("same-named scenarios with different content share a canonical key")
	}
}

func TestCanonicalKeyNormalizesSpelling(t *testing.T) {
	// JSON spelling differences that do not change the value must not
	// change the identity.
	a := mustParse(t, validDoc)
	b := mustParse(t, strings.Replace(validDoc, `"rate_gbps": 0.8`, `"rate_gbps": 0.80`, 1))
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatalf("0.8 and 0.80 produce different keys:\n%s\n%s", a.CanonicalKey(), b.CanonicalKey())
	}
}

func TestCanonicalKeyIgnoresDescription(t *testing.T) {
	a := mustParse(t, validDoc)
	b := mustParse(t, strings.Replace(validDoc, "ignored by the key", "a different story", 1))
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Fatal("description changed the canonical key")
	}
}

func TestCompileLowering(t *testing.T) {
	s := mustParse(t, validDoc)
	c, err := s.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(c.Levels) != 2 {
		t.Fatalf("expected 2 compiled levels, got %d", len(c.Levels))
	}
	cache, store := c.Levels[0], c.Levels[1]
	if cache.SRAM == nil || cache.SRAM.Bits != 256*1024 {
		t.Fatalf("sram level not lowered: %+v", cache.SRAM)
	}
	if store.Spec.CapacityMbit != 16 || store.Spec.InterfaceBits != 64 {
		t.Fatalf("edram spec not lowered: %+v", store.Spec)
	}
	// Port demand 1.0+0.5 exceeds the client sum 0.8, so it wins.
	if got := store.Requirements.BandwidthGBps; got != 1.5 {
		t.Fatalf("bandwidth requirement = %g, want 1.5 (port demand)", got)
	}
	// Derived power: 8*(1.0*1.5 + 0.5*1.8) * PowerOverheadFactor.
	want := 8 * (1.0*1.5 + 0.5*1.8) * PowerOverheadFactor
	if got := store.Requirements.MaxPowerMW; got != want {
		t.Fatalf("derived power cap = %g, want %g", got, want)
	}
	if len(store.Clients) != 1 || store.Clients[0].Name != "stream" {
		t.Fatalf("client allocation wrong: %+v", store.Clients)
	}
	if c.Target != 1 {
		t.Fatalf("target = %d, want 1 (first edram level with clients)", c.Target)
	}
	if c.Policy != sched.OpenPageFirst || c.ReorderWindow != 8 {
		t.Fatalf("workload options not lowered: %+v", c)
	}
}

func TestCompileClientDemandWins(t *testing.T) {
	doc := strings.Replace(validDoc, `"rate_gbps": 0.8`, `"rate_gbps": 4.0`, 1)
	c, err := mustParse(t, doc).Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if got := c.Levels[1].Requirements.BandwidthGBps; got != 4.0 {
		t.Fatalf("bandwidth requirement = %g, want 4 (client demand)", got)
	}
}

func TestCompileRefusesInvalidDocument(t *testing.T) {
	doc := strings.Replace(validDoc, `"capacity_mbit": 16`, `"capacity_mbit": 0`, 1)
	if _, err := mustParse(t, doc).Compile(); err == nil {
		t.Fatal("Compile accepted an invalid document")
	} else if !strings.Contains(err.Error(), "invalid scenario:") {
		t.Fatalf("error lacks the shared vocabulary prefix: %v", err)
	}
}

func TestParsePolicyVocabulary(t *testing.T) {
	for name, want := range map[string]sched.Policy{
		"":                sched.RoundRobin,
		"round-robin":     sched.RoundRobin,
		"priority":        sched.FixedPriority,
		"fixed-priority":  sched.FixedPriority,
		"oldest":          sched.OldestFirst,
		"oldest-first":    sched.OldestFirst,
		"open-page":       sched.OpenPageFirst,
		"open-page-first": sched.OpenPageFirst,
		"deadline":        sched.Deadline,
	} {
		got, err := ParsePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePolicy("lifo"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestTargetLevelAllSRAM(t *testing.T) {
	doc := `{
	  "schema_version": 1, "name": "sram-only",
	  "hierarchy": {"levels": [{"name": "buf", "kind": "sram", "capacity_kbit": 64}]},
	  "constraints": {"hit_rate": 0.5}
	}`
	c, err := mustParse(t, doc).Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if _, err := c.TargetLevel(); err == nil {
		t.Fatal("TargetLevel succeeded with no edram level")
	}
}

func containsSubstring(list []string, sub string) bool {
	for _, s := range list {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// FuzzScenarioParse drives the scenario loader with arbitrary bytes: it
// never panics, and for any document it accepts Compile refuses it
// exactly when Violations lists something.
func FuzzScenarioParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return
		}
		v := s.Violations(0)
		if _, err := s.Compile(); (err != nil) != (len(v) > 0) {
			t.Fatalf("Compile error %v with violations %q", err, v)
		}
	})
}

func TestViolationsRequestWidth(t *testing.T) {
	// store is 64 bits wide: MaxBeats beats is 4096 bits.
	cases := []struct {
		bits    int
		refused bool
	}{{64 * MaxBeats, false}, {64*MaxBeats + 1, true}, {1 << 40, true}}
	for _, tc := range cases {
		doc := strings.Replace(validDoc, `"count": 100`, fmt.Sprintf(`"count": 100, "bits": %d`, tc.bits), 1)
		v := mustParse(t, doc).Violations(0)
		if got := containsSubstring(v, "beats of the 64-bit interface"); got != tc.refused {
			t.Errorf("%d-bit requests: refused=%t, want %t: %v", tc.bits, got, tc.refused, v)
		}
	}
}
