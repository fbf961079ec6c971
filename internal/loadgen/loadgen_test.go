package loadgen

import (
	"reflect"
	"strings"
	"testing"
)

// TestScheduleDeterministic: same profile + seed, same sequence; a
// different seed reshuffles it.
func TestScheduleDeterministic(t *testing.T) {
	p := SmokeProfile(1)
	a, err := Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules of the same profile differ")
	}
	if len(a) != p.Requests {
		t.Fatalf("schedule has %d requests, want %d", len(a), p.Requests)
	}
	c, err := Schedule(SmokeProfile(2))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 produced identical schedules")
	}
}

// TestScheduleMixes: the smoke profile exercises every mix, unique
// bodies never repeat, storms repeat within a burst, and overload
// probes are marked shed-expected.
func TestScheduleMixes(t *testing.T) {
	reqs, err := Schedule(SmokeProfile(1))
	if err != nil {
		t.Fatal(err)
	}
	seenMix := map[string]int{}
	uniqueBodies := map[string]int{}
	overloadBodies := map[string]int{}
	rotateBodies := map[string]bool{}
	deltaBodies := map[string]bool{}
	for _, r := range reqs {
		seenMix[r.Mix]++
		if r.Mix == "unique" {
			uniqueBodies[r.Body]++
		}
		if r.Mix == "overload" {
			if !r.WantShed || r.Path != "/v1/simulate" {
				t.Fatalf("overload request not a shed-expected simulate: %+v", r)
			}
			overloadBodies[r.Body]++
		}
		if r.Mix == "rotate" {
			if r.Path != "/v1/explore" || r.WantShed {
				t.Fatalf("rotate request must be a plain explore: %+v", r)
			}
			rotateBodies[r.Body] = true
		}
		if r.Mix == "delta" {
			if r.Path != "/v1/explore" || r.WantShed {
				t.Fatalf("delta request must be a plain explore: %+v", r)
			}
			if !strings.Contains(r.Body, `"hit_rate":0.6`) || !strings.Contains(r.Body, `"max_area_mm2":`) {
				t.Fatalf("delta body must rotate the area cap over the 0.6 hit-rate family: %s", r.Body)
			}
			deltaBodies[r.Body] = true
		}
		if r.Mix == "disconnect" && !r.Disconnect {
			t.Fatalf("disconnect request not marked: %+v", r)
		}
		if r.Mix == "slow" && !r.SlowBody {
			t.Fatalf("slow request not marked: %+v", r)
		}
	}
	for _, mix := range []string{"hot", "unique", "storm", "slow", "disconnect", "overload", "rotate", "delta"} {
		if seenMix[mix] == 0 {
			t.Errorf("smoke profile never drew mix %q", mix)
		}
	}
	for body, n := range uniqueBodies {
		if n > 1 {
			t.Errorf("unique body repeated %d times: %s", n, body)
		}
	}
	for body, n := range overloadBodies {
		if n > 1 {
			t.Errorf("overload body repeated %d times (must cache-bust): %s", n, body)
		}
	}
	// The rotate mix cycles a small set so repeats hit the cache
	// tiers; with 8% of 160 requests every body should recur.
	if len(rotateBodies) == 0 || len(rotateBodies) > 4 {
		t.Errorf("rotate mix drew %d distinct bodies, want 1..4", len(rotateBodies))
	}
	if seenMix["rotate"] <= len(rotateBodies) {
		t.Errorf("rotate mix drew %d requests over %d bodies — no repeats to hit the cache",
			seenMix["rotate"], len(rotateBodies))
	}
	// The delta mix needs at least two distinct caps in one run: the
	// first records the retained state, the second exercises the
	// incremental re-serve.
	if len(deltaBodies) < 2 || len(deltaBodies) > 4 {
		t.Errorf("delta mix drew %d distinct bodies, want 2..4", len(deltaBodies))
	}
}

// TestScheduleRejectsBadProfiles: zero weights and empty runs are
// configuration errors, not silent no-ops.
func TestScheduleRejectsBadProfiles(t *testing.T) {
	if _, err := Schedule(Profile{Requests: 10, Mixes: []MixWeight{{"hot", 0}}}); err == nil {
		t.Error("all-zero weights accepted")
	}
	if _, err := Schedule(Profile{Requests: 0, Mixes: []MixWeight{{"hot", 1}}}); err == nil {
		t.Error("zero-request profile accepted")
	}
	if _, err := Schedule(Profile{Requests: 5, Mixes: []MixWeight{{"lukewarm", 1}}}); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestSummarizeAndCheck pins the outcome classification and the SLO
// arithmetic.
func TestSummarizeAndCheck(t *testing.T) {
	ms := int64(1e6)
	outcomes := []Outcome{
		{Mix: "hot", Status: 200, LatencyNs: 10 * ms},
		{Mix: "hot", Status: 200, LatencyNs: 20 * ms},
		{Mix: "hot", Status: 200, LatencyNs: 30 * ms},
		{Mix: "overload", Status: 503, WantShed: true},
		{Mix: "overload", Status: 200, LatencyNs: 40 * ms, WantShed: true},
		{Mix: "disconnect", Disconnected: true},
		{Mix: "unique", Status: 500},
	}
	r := Summarize(outcomes)
	if r.OK != 4 || r.ShedExpected != 1 || r.Disconnected != 1 || r.UnexpectedErrors != 1 {
		t.Fatalf("classification: ok=%d shed=%d disc=%d err=%d", r.OK, r.ShedExpected, r.Disconnected, r.UnexpectedErrors)
	}
	// 6 judged outcomes (disconnects excluded), 1 unexpected error.
	if got, want := r.ErrorFrac, 1.0/6.0; got != want {
		t.Errorf("error frac %v, want %v", got, want)
	}
	if r.P50Ns != 20*ms || r.P99Ns != 40*ms || r.P999Ns != 40*ms {
		t.Errorf("percentiles p50=%d p99=%d p999=%d", r.P50Ns, r.P99Ns, r.P999Ns)
	}
	if len(r.Mixes) != 4 || r.Mixes[0].Mix != "disconnect" {
		t.Errorf("mix rollup not sorted: %+v", r.Mixes)
	}

	v := r.Check(SLO{P50Ms: 15, P99Ms: 5000, MaxErrorFrac: 0})
	if len(v) != 2 {
		t.Fatalf("violations %v, want p50 breach + error budget breach", v)
	}
	if !strings.Contains(v[0], "p50") || !strings.Contains(v[1], "error fraction") {
		t.Errorf("violations %v", v)
	}
	if v := r.Check(SLO{P50Ms: 100, P99Ms: 100, P999Ms: 100, MaxErrorFrac: 0.5}); len(v) != 0 {
		t.Errorf("generous SLO still violated: %v", v)
	}

	empty := Summarize(nil)
	if empty.P50Ns != 0 || empty.ErrorFrac != 0 {
		t.Errorf("empty run: %+v", empty)
	}
}

// TestParseTierStats pins the /metrics scrape: tier series in any
// order, interleaved with unrelated lines, parse to sorted stats.
func TestParseTierStats(t *testing.T) {
	text := strings.Join([]string{
		`# HELP edramd_cache_tier_hits_total Cache hits by tier.`,
		`edramd_cache_tier_misses_total{tier="memory"} 4`,
		`edramd_requests_total{endpoint="/v1/explore"} 12`,
		`edramd_cache_tier_hits_total{tier="memory"} 12`,
		`edramd_cache_tier_hits_total{tier="delta"} 1`,
		`edramd_cache_tier_misses_total{tier="delta"} 3`,
		``,
	}, "\n")
	got := ParseTierStats(text)
	want := []TierStat{
		{Tier: "delta", Hits: 1, Misses: 3, HitRatio: 0.25},
		{Tier: "memory", Hits: 12, Misses: 4, HitRatio: 0.75},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseTierStats:\n got %+v\nwant %+v", got, want)
	}
	if stats := ParseTierStats("edramd_cache_tier_hits_total{tier=\"memory\"} not-a-number\n"); len(stats) != 0 {
		t.Errorf("garbage value parsed: %+v", stats)
	}

	r := Report{Tiers: want}
	out := r.Format()
	if !strings.Contains(out, "cache tier delta") || !strings.Contains(out, "hit-ratio 0.750") {
		t.Errorf("Format missing tier lines:\n%s", out)
	}
}
