package service

import (
	"bytes"
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"testing"

	"edram/internal/edram"
)

// TestSimulateCanonicalKeyEscapesStrings pins the quoting rule: a
// client name containing the key's ',' / '|' separators must not shift
// the positional fields and collide with a different request.
func TestSimulateCanonicalKeyEscapesStrings(t *testing.T) {
	spec := edram.Spec{CapacityMbit: 16, InterfaceBits: 64}
	// a: one client whose name embeds what looks like the tail of its
	// own rendering plus a second client. b: the two clients spelled
	// honestly. Without quoting both render the same canonical string.
	a := SimulateRequest{Spec: spec, Clients: []ClientSpec{
		{Name: "cpu,sequential,0,1,100,0,0,0,0,0,false,0|client=dsp", Kind: "sequential", RateGBps: 1, Count: 100},
	}}
	b := SimulateRequest{Spec: spec, Clients: []ClientSpec{
		{Name: "cpu", Kind: "sequential", RateGBps: 1, Count: 100},
		{Name: "dsp", Kind: "sequential", RateGBps: 1, Count: 100},
	}}
	if a.canonicalKey() == b.canonicalKey() {
		t.Errorf("delimiter injection collides:\n  %q", a.canonicalKey())
	}
}

// TestExperimentsCanonicalKeyEscapesIDs pins the same rule for the id
// filter: an id containing ',' must not render as two ids.
func TestExperimentsCanonicalKeyEscapesIDs(t *testing.T) {
	a := ExperimentsRequest{IDs: []string{"E1,E2"}}
	b := ExperimentsRequest{IDs: []string{"E1", "E2"}}
	if a.canonicalKey() == b.canonicalKey() {
		t.Errorf("id delimiter injection collides:\n  %q", a.canonicalKey())
	}
}

// TestEndpointLabelClosedSet: metrics are labeled only with the known
// route set; arbitrary client-controlled paths collapse to "other" so
// they cannot mint unbounded metric series.
func TestEndpointLabelClosedSet(t *testing.T) {
	for _, known := range []string{"/healthz", "/metrics", "/v1/explore",
		"/v1/recommend", "/v1/simulate", "/v1/datasheet", "/v1/experiments"} {
		if got := endpointLabel(known); got != known {
			t.Errorf("endpointLabel(%q) = %q, want itself", known, got)
		}
	}
	for _, unknown := range []string{"/", "/v1/explore/", "/v2/explore", "/favicon.ico", "/../../etc/passwd"} {
		if got := endpointLabel(unknown); got != "other" {
			t.Errorf("endpointLabel(%q) = %q, want \"other\"", unknown, got)
		}
	}
}

// FuzzRequirementsKey fuzzes the explore/recommend request boundary:
// arbitrary bytes never panic the strict decoder, and an accepted body
// with no violations has a canonical key that survives a marshal →
// decode round trip and any respelling a client might send (fields
// reordered, 1 written as 1.0 or 1e+00).
func FuzzRequirementsKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var body RequirementsRequest
		if strictUnmarshal(raw, &body) != nil || len(body.Violations()) > 0 {
			return
		}
		key := body.CanonicalKey()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("accepted body does not marshal: %v", err)
		}
		spellings := map[string]func(float64) string{
			"decimal": func(v float64) string {
				s := strconv.FormatFloat(v, 'f', -1, 64)
				if !strings.Contains(s, ".") {
					s += ".0"
				}
				return s
			},
			"exponent": func(v float64) string { return strconv.FormatFloat(v, 'e', -1, 64) },
		}
		bodies := map[string][]byte{"marshalled": b}
		for name, spell := range spellings {
			bodies[name] = respellRequirements(t, b, spell)
		}
		for name, rb := range bodies {
			var again RequirementsRequest
			if err := strictUnmarshal(rb, &again); err != nil {
				t.Fatalf("%s body %s rejected: %v", name, rb, err)
			}
			if got := again.CanonicalKey(); got != key {
				t.Fatalf("%s body %s changed the key:\n got %s\nwant %s", name, rb, got, key)
			}
		}
	})
}

// respellRequirements re-encodes a marshalled requirements body with
// its top-level fields in reverse order and every top-level float in
// the given spelling.
func respellRequirements(t *testing.T, b []byte, spell func(float64) string) []byte {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var out bytes.Buffer
	out.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			out.WriteByte(',')
		}
		v := []byte(fields[name])
		switch name {
		case "bandwidth_gbps", "hit_rate", "max_area_mm2", "max_power_mw", "min_clock_mhz", "defects_per_cm2":
			f, err := strconv.ParseFloat(string(v), 64)
			if err != nil {
				t.Fatal(err)
			}
			v = []byte(spell(f))
		}
		out.WriteString(strconv.Quote(name) + ":")
		out.Write(v)
	}
	out.WriteByte('}')
	return out.Bytes()
}
