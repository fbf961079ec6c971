// Package loadgen is the deterministic half of the edramload SLO
// harness: seeded request schedules, latency percentile math and SLO
// evaluation. Everything here is pure — the same profile and seed
// produce the same request sequence byte for byte, so an SLO breach in
// CI is a service regression, never schedule noise. The wall-clock
// half (issuing requests, measuring latency) lives in cmd/edramload.
//
// A schedule interleaves eight traffic mixes, each probing one
// overload behaviour of the daemon:
//
//   - hot: one identical request over and over — the cache-hit fast
//     path that must stay fast under every other mix's pressure;
//   - unique: cache-busting requests (every body distinct) — the
//     compute path, immune to the cache and the coalescer;
//   - storm: bursts of identical uncached requests — the coalescer
//     must collapse each burst into one computation;
//   - slow: requests whose bodies drip in byte by byte — slowloris
//     pressure that must not occupy compute capacity;
//   - disconnect: requests abandoned mid-flight — detached compute
//     must finish and fill the cache anyway;
//   - overload: deliberate saturation of one tightly-budgeted endpoint
//     — these are EXPECTED to shed with 503 + Retry-After, and their
//     503s do not count against the error budget;
//   - rotate: explores cycling a small body set — each body's first
//     draw is computed, and the repeats land in the result cache;
//   - delta: explores rotating one constraint (the area cap) over an
//     otherwise fixed requirement structure — the first draw is the
//     cold sweep that records the daemon's retained state, each later
//     distinct cap is re-served incrementally (X-Cache: hit-delta),
//     and exact repeats land in the byte caches.
package loadgen

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Request is one scheduled HTTP operation.
type Request struct {
	// Mix names the traffic mix that generated the request.
	Mix string
	// Path and Body describe the POST to issue.
	Path string
	Body string
	// Disconnect abandons the request mid-flight (the driver cancels
	// its context shortly after the body is sent).
	Disconnect bool
	// SlowBody drips the request body to the server in small chunks.
	SlowBody bool
	// WantShed marks a deliberate-overload probe: a 503 reply is the
	// intended outcome and is not an error-budget violation.
	WantShed bool
}

// MixWeight is one entry of a profile's traffic composition.
type MixWeight struct {
	Name   string
	Weight int
}

// Profile describes a load run: how many requests, drawn from which
// mix composition, under which seed.
type Profile struct {
	Requests int
	Seed     int64
	Mixes    []MixWeight
}

// SmokeProfile is the deterministic CI profile: small enough to finish
// in seconds, broad enough that every mix (and therefore every
// overload behaviour) is exercised.
func SmokeProfile(seed int64) Profile {
	return Profile{
		Requests: 160,
		Seed:     seed,
		Mixes: []MixWeight{
			{"hot", 35},
			{"unique", 22},
			{"storm", 15},
			{"slow", 5},
			{"disconnect", 5},
			{"overload", 10},
			{"rotate", 8},
			{"delta", 8},
		},
	}
}

// stormBurst is how many identical requests one storm draw emits.
const stormBurst = 6

// hotBody is the hot mix's single recommend request (the same
// requirements the service tests pin, so the response is known-good).
const hotBody = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5}`

// Schedule expands a profile into its deterministic request sequence.
// The sequence depends only on (Profile.Requests, Profile.Seed,
// Profile.Mixes) — never on wall-clock or map order.
func Schedule(p Profile) ([]Request, error) {
	total := 0
	for _, m := range p.Mixes {
		if m.Weight < 0 {
			return nil, fmt.Errorf("loadgen: mix %q has negative weight %d", m.Name, m.Weight)
		}
		total += m.Weight
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: profile has no positive mix weights")
	}
	if p.Requests < 1 {
		return nil, fmt.Errorf("loadgen: profile must schedule at least one request, got %d", p.Requests)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var reqs []Request
	var uniqueSeq, stormSeq, disconnectSeq, overloadSeq, rotateSeq, deltaSeq int
	for len(reqs) < p.Requests {
		draw := rng.Intn(total)
		var mix string
		for _, m := range p.Mixes {
			if draw < m.Weight {
				mix = m.Name
				break
			}
			draw -= m.Weight
		}
		switch mix {
		case "hot":
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/recommend", Body: hotBody})
		case "unique":
			// Every body distinct: the target clock is a fresh value each
			// time, so neither the cache nor the coalescer can absorb it.
			uniqueSeq++
			body := fmt.Sprintf(
				`{"capacity_mbit":%d,"interface_bits":%d,"redundancy":"std","target_clock_mhz":%d.5}`,
				[]int{4, 8, 16, 32}[uniqueSeq%4], []int{32, 64, 128}[uniqueSeq%3], 100+uniqueSeq)
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/datasheet", Body: body})
		case "storm":
			// One burst of identical, per-burst-unique requests: exactly
			// one computation if the coalescer holds.
			stormSeq++
			body := fmt.Sprintf(`{"capacity_mbit":16,"bandwidth_gbps":%d.125,"hit_rate":0.5}`, 1+stormSeq%8)
			for i := 0; i < stormBurst && len(reqs) < p.Requests; i++ {
				reqs = append(reqs, Request{Mix: mix, Path: "/v1/recommend", Body: body})
			}
		case "slow":
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/datasheet",
				Body: `{"capacity_mbit":16,"interface_bits":128,"redundancy":"std"}`, SlowBody: true})
		case "disconnect":
			disconnectSeq++
			body := fmt.Sprintf(`{"capacity_mbit":16,"bandwidth_gbps":%d.25,"hit_rate":0.5}`, 1+disconnectSeq%4)
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/recommend", Body: body, Disconnect: true})
		case "overload":
			// Cache-busting simulations against the endpoint the driver
			// configures with a tiny concurrency budget. (This mix used
			// to target /v1/explore, but explores are the rotate and
			// delta mixes' probes — shedding them would starve those.)
			overloadSeq++
			body := fmt.Sprintf(
				`{"spec":{"capacity_mbit":16,"interface_bits":64},"options":{"policy":"round-robin"},`+
					`"clients":[{"name":"cpu","kind":"sequential","rate_gbps":0.8,"count":%d}]}`,
				500+overloadSeq)
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/simulate", Body: body, WantShed: true})
		case "rotate":
			// A small rotating body set: each body's first draw is
			// computed below the result cache, the repeats measure the
			// cache tiers.
			rotateSeq++
			body := fmt.Sprintf(`{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5,"max_power_mw":%d00.5}`, 4+rotateSeq%4)
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/explore", Body: body})
		case "delta":
			// One structural requirement family, rotating only the area
			// cap (hit_rate 0.6 keeps the family's structural key disjoint
			// from the hot and rotate mixes' 0.5 bodies, so no other mix
			// feeds the retained state this family is re-served from).
			deltaSeq++
			body := fmt.Sprintf(`{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.6,"max_area_mm2":%d.5}`, 20+10*(deltaSeq%4))
			reqs = append(reqs, Request{Mix: mix, Path: "/v1/explore", Body: body})
		default:
			return nil, fmt.Errorf("loadgen: unknown mix %q", mix)
		}
	}
	return reqs, nil
}

// Outcome is what the driver observed for one request.
type Outcome struct {
	Mix    string
	Status int // 0 = transport failure (no response)
	// LatencyNs is the request's wall latency; only successful (2xx)
	// outcomes feed the percentiles.
	LatencyNs int64
	// Disconnected marks a deliberate mid-flight abandonment.
	Disconnected bool
	// WantShed carries the schedule's deliberate-overload mark.
	WantShed bool
}

// SLO is the latency/error contract a run is judged against.
type SLO struct {
	P50Ms        float64
	P99Ms        float64
	P999Ms       float64
	MaxErrorFrac float64
}

// DefaultSLO is the declared serving objective for the deterministic
// smoke profile on one modest core: the hot path stays in tens of
// milliseconds, the tail is bounded by one uncached sweep, and no
// unexpected errors are tolerated at all.
func DefaultSLO() SLO {
	return SLO{P50Ms: 250, P99Ms: 5000, P999Ms: 10000, MaxErrorFrac: 0}
}

// MixStats is the per-mix rollup inside a Report.
type MixStats struct {
	Mix          string `json:"mix"`
	Requests     int    `json:"requests"`
	OK           int    `json:"ok"`
	Shed         int    `json:"shed"`
	Disconnected int    `json:"disconnected"`
	Errors       int    `json:"errors"`
}

// TierStat is one cache tier's hit/miss tally, scraped from the
// daemon's /metrics after a run. Recorded for observability, not
// SLO-gated: hit ratios depend on mix interleaving, and gating on
// them would make the harness flaky, not the service honest.
type TierStat struct {
	Tier     string  `json:"tier"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// ParseTierStats extracts the edramd_cache_tier_* series from a
// Prometheus text exposition. Tiers come back sorted by name; tiers
// absent from the text are absent from the result.
func ParseTierStats(metricsText string) []TierStat {
	byTier := map[string]*TierStat{}
	var names []string
	get := func(tier string) *TierStat {
		if byTier[tier] == nil {
			byTier[tier] = &TierStat{Tier: tier}
			names = append(names, tier)
		}
		return byTier[tier]
	}
	for _, line := range strings.Split(metricsText, "\n") {
		var hits bool
		var rest string
		switch {
		case strings.HasPrefix(line, `edramd_cache_tier_hits_total{tier="`):
			hits, rest = true, strings.TrimPrefix(line, `edramd_cache_tier_hits_total{tier="`)
		case strings.HasPrefix(line, `edramd_cache_tier_misses_total{tier="`):
			hits, rest = false, strings.TrimPrefix(line, `edramd_cache_tier_misses_total{tier="`)
		default:
			continue
		}
		tier, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(value), 10, 64)
		if err != nil {
			continue
		}
		if hits {
			get(tier).Hits = n
		} else {
			get(tier).Misses = n
		}
	}
	sort.Strings(names)
	var tiers []TierStat
	for _, name := range names {
		t := byTier[name]
		if total := t.Hits + t.Misses; total > 0 {
			t.HitRatio = float64(t.Hits) / float64(total)
		}
		tiers = append(tiers, *t)
	}
	return tiers
}

// Report is the harness's aggregate verdict over one run.
type Report struct {
	Requests     int `json:"requests"`
	OK           int `json:"ok"`
	ShedExpected int `json:"shed_expected"`
	Disconnected int `json:"disconnected"`
	// UnexpectedErrors counts transport failures, 4xx and 5xx replies —
	// except deliberate disconnects and 503s on WantShed probes.
	UnexpectedErrors int        `json:"unexpected_errors"`
	ErrorFrac        float64    `json:"error_frac"`
	P50Ns            int64      `json:"p50_ns"`
	P99Ns            int64      `json:"p99_ns"`
	P999Ns           int64      `json:"p999_ns"`
	Mixes            []MixStats `json:"mixes"`
	// Tiers holds the daemon's per-tier cache hit ratios, scraped
	// after the run when the driver has a /metrics endpoint to ask.
	Tiers []TierStat `json:"tiers,omitempty"`
}

// percentile is the nearest-rank percentile of sorted latencies.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Summarize folds the observed outcomes into a report.
func Summarize(outcomes []Outcome) Report {
	r := Report{Requests: len(outcomes)}
	byMix := map[string]*MixStats{}
	var mixNames []string
	var lat []int64
	for _, o := range outcomes {
		ms := byMix[o.Mix]
		if ms == nil {
			ms = &MixStats{Mix: o.Mix}
			byMix[o.Mix] = ms
			mixNames = append(mixNames, o.Mix)
		}
		ms.Requests++
		switch {
		case o.Disconnected:
			r.Disconnected++
			ms.Disconnected++
		case o.Status >= 200 && o.Status < 300:
			r.OK++
			ms.OK++
			lat = append(lat, o.LatencyNs)
		case o.Status == 503 && o.WantShed:
			r.ShedExpected++
			ms.Shed++
		default:
			r.UnexpectedErrors++
			ms.Errors++
		}
	}
	if judged := r.Requests - r.Disconnected; judged > 0 {
		r.ErrorFrac = float64(r.UnexpectedErrors) / float64(judged)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	r.P50Ns = percentile(lat, 0.50)
	r.P99Ns = percentile(lat, 0.99)
	r.P999Ns = percentile(lat, 0.999)
	sort.Strings(mixNames)
	for _, name := range mixNames {
		r.Mixes = append(r.Mixes, *byMix[name])
	}
	return r
}

// Check returns every SLO violation of the run (empty = the run met
// its objectives).
func (r Report) Check(slo SLO) []string {
	var v []string
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	if slo.P50Ms > 0 && ms(r.P50Ns) > slo.P50Ms {
		v = append(v, fmt.Sprintf("p50 %.1fms exceeds SLO %.1fms", ms(r.P50Ns), slo.P50Ms))
	}
	if slo.P99Ms > 0 && ms(r.P99Ns) > slo.P99Ms {
		v = append(v, fmt.Sprintf("p99 %.1fms exceeds SLO %.1fms", ms(r.P99Ns), slo.P99Ms))
	}
	if slo.P999Ms > 0 && ms(r.P999Ns) > slo.P999Ms {
		v = append(v, fmt.Sprintf("p999 %.1fms exceeds SLO %.1fms", ms(r.P999Ns), slo.P999Ms))
	}
	if r.ErrorFrac > slo.MaxErrorFrac {
		v = append(v, fmt.Sprintf("error fraction %.4f exceeds budget %.4f (%d unexpected errors)",
			r.ErrorFrac, slo.MaxErrorFrac, r.UnexpectedErrors))
	}
	return v
}

// Format renders the report as a human-readable table.
func (r Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d: %d ok, %d shed (deliberate), %d disconnected (deliberate), %d unexpected errors\n",
		r.Requests, r.OK, r.ShedExpected, r.Disconnected, r.UnexpectedErrors)
	fmt.Fprintf(&b, "latency p50 %.1fms  p99 %.1fms  p999 %.1fms  error-frac %.4f\n",
		float64(r.P50Ns)/1e6, float64(r.P99Ns)/1e6, float64(r.P999Ns)/1e6, r.ErrorFrac)
	for _, m := range r.Mixes {
		fmt.Fprintf(&b, "  %-12s %4d requests  %4d ok  %3d shed  %3d disconnected  %3d errors\n",
			m.Mix, m.Requests, m.OK, m.Shed, m.Disconnected, m.Errors)
	}
	for _, t := range r.Tiers {
		fmt.Fprintf(&b, "  cache tier %-8s %6d hits  %6d misses  hit-ratio %.3f\n",
			t.Tier, t.Hits, t.Misses, t.HitRatio)
	}
	return b.String()
}
