// ClientSpec — the declarative form of one memory client — lives here
// so scenario documents, the simulate wire schema and the CLIs share
// one definition (internal/service aliases it). It moved from
// internal/service when the scenario language landed; the JSON names
// are unchanged and remain the /v1/simulate wire schema.

package scenario

import (
	"fmt"
	"math/rand"

	"edram/internal/traffic"
)

// clientKinds lists the generator kinds the loader accepts.
const clientKinds = "sequential, strided, random, alternating"

// ClientSpec is the declarative form of one memory client: a named
// request generator. Kind selects the generator; the geometry fields
// not used by a kind are ignored.
type ClientSpec struct {
	Name string `json:"name"`
	// Kind: "sequential", "strided", "random", "alternating".
	Kind string `json:"kind"`
	// Bits per request (default: the macro interface width).
	Bits int `json:"bits,omitempty"`
	// RateGBps is the bandwidth the client demands.
	RateGBps float64 `json:"rate_gbps"`
	// Count is the number of requests to emit (required: the service
	// refuses unbounded streams).
	Count   int   `json:"count"`
	StartB  int64 `json:"start_b,omitempty"`
	StrideB int64 `json:"stride_b,omitempty"`
	// LimitB wraps sequential/strided streams; WindowB bounds random
	// ones.
	LimitB  int64 `json:"limit_b,omitempty"`
	WindowB int64 `json:"window_b,omitempty"`
	// Seed seeds the random generator (default 1; runs are
	// deterministic for a given seed).
	Seed            int64   `json:"seed,omitempty"`
	Write           bool    `json:"write,omitempty"`
	LatencyBudgetNs float64 `json:"latency_budget_ns,omitempty"`
}

// MaxBeats caps the data beats of one request: a request of Bits on
// an interface of w bits takes ceil(Bits/w) beats, and the simulator
// pays for every beat, so an uncapped width would let a one-request
// client run for hours.
const MaxBeats = 64

// Violations lists every constraint the client spec violates
// (maxRequests caps Count; 0 = uncapped). interfaceBits is the width
// of the macro the client runs on; requests wider than MaxBeats beats
// of it are refused (0 skips the check, for a spec invalid anyway).
func (c ClientSpec) Violations(i int, maxRequests int64, interfaceBits int) []string {
	var v []string
	at := func(format string, args ...any) {
		v = append(v, fmt.Sprintf("client %d (%s): %s", i, c.Name, fmt.Sprintf(format, args...)))
	}
	switch c.Kind {
	case "sequential", "strided", "random", "alternating":
	default:
		at("unknown kind %q (%s)", c.Kind, clientKinds)
	}
	if c.Name == "" {
		at("name is required")
	}
	if c.RateGBps <= 0 {
		at("rate must be positive, got %g GB/s", c.RateGBps)
	}
	if c.Count <= 0 {
		at("count must be positive, got %d (unbounded streams are not served)", c.Count)
	} else if maxRequests > 0 && int64(c.Count) > maxRequests {
		at("count %d exceeds the per-request limit %d", c.Count, maxRequests)
	}
	if c.Bits < 0 || c.StartB < 0 || c.StrideB < 0 || c.LimitB < 0 || c.WindowB < 0 {
		at("geometry fields must be non-negative")
	}
	if c.Bits > 0 && interfaceBits > 0 {
		if beats := (c.Bits-1)/interfaceBits + 1; beats > MaxBeats {
			at("%d-bit requests take %d beats of the %d-bit interface, more than the limit %d", c.Bits, beats, interfaceBits, MaxBeats)
		}
	}
	if c.LatencyBudgetNs < 0 {
		at("latency budget must be non-negative, got %g ns", c.LatencyBudgetNs)
	}
	return v
}

// Generator builds the traffic generator for the spec. bits is the
// default request width (the macro interface).
func (c ClientSpec) Generator(i, bits int) traffic.Generator {
	if c.Bits > 0 {
		bits = c.Bits
	}
	switch c.Kind {
	case "strided":
		return &traffic.Strided{ClientID: i, StartB: c.StartB, StrideB: c.StrideB,
			LimitB: c.LimitB, Bits: bits, Write: c.Write, RateGB: c.RateGBps, Count: c.Count}
	case "random":
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		window := c.WindowB
		if window <= 0 {
			window = 1 << 20
		}
		return &traffic.Random{ClientID: i, StartB: c.StartB, WindowB: window, Bits: bits,
			Write: c.Write, RateGB: c.RateGBps, Count: c.Count, Rng: NewSeededRand(seed)}
	case "alternating":
		return &traffic.Alternating{ClientID: i, BaseA: c.StartB, BaseB: c.StartB + c.StrideB,
			Bits: bits, RateGB: c.RateGBps, Count: c.Count}
	default: // "sequential"
		return &traffic.Sequential{ClientID: i, StartB: c.StartB, LimitB: c.LimitB,
			Bits: bits, Write: c.Write, RateGB: c.RateGBps, Count: c.Count}
	}
}

// NewSeededRand returns a deterministic PRNG for the random traffic
// generator — same seed, same request stream, same simulation result.
func NewSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
