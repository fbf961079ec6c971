package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"edram/internal/core"
	"edram/internal/service"
)

func allRequests(p *Plan) []Request {
	out := append([]Request(nil), p.PrevLife...)
	for _, s := range p.Clients {
		out = append(out, s...)
	}
	return out
}

func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := NewPlan(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewPlan(w, 7)
		c, _ := NewPlan(w, 8)
		ra, rb, rc := allRequests(a), allRequests(b), allRequests(c)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d requests for one seed", w, len(ra), len(rb))
		}
		same := true
		for i := range ra {
			if ra[i].Path != rb[i].Path || !bytes.Equal(ra[i].Body, rb[i].Body) {
				t.Fatalf("%s: request %d differs between two plans of one seed", w, i)
			}
			if i < len(rc) && !bytes.Equal(ra[i].Body, rc[i].Body) {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", w)
		}
		if !bytes.Equal(mustJSON(a.Warmup), mustJSON(b.Warmup)) {
			t.Errorf("%s: warmup differs between two plans of one seed", w)
		}
	}
}

// TestRequestsPassViolations decodes every generated request the way
// the daemon does and runs the daemon's own validation on it.
func TestRequestsPassViolations(t *testing.T) {
	for _, w := range workloads {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := NewPlan(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range allRequests(p) {
				var v []string
				if r.Path == "/v1/simulate" {
					var req service.SimulateRequest
					if err := strictDecode(r.Body, &req); err != nil {
						t.Fatalf("%s seed %d request %d: %v", w, seed, i, err)
					}
					v = req.Violations(2_000_000)
				} else {
					var req service.RequirementsRequest
					if err := strictDecode(r.Body, &req); err != nil {
						t.Fatalf("%s seed %d request %d: %v", w, seed, i, err)
					}
					v = req.Violations()
				}
				if len(v) > 0 {
					t.Errorf("%s seed %d request %d %s: %v", w, seed, i, r.Body, v)
				}
			}
			for _, req := range p.Warmup {
				if v := req.Violations(); len(v) > 0 {
					t.Errorf("%s seed %d warmup %+v: %v", w, seed, req, v)
				}
			}
		}
	}
}

func decodeReq(t *testing.T, r Request) core.Requirements {
	t.Helper()
	var req core.Requirements
	if err := json.Unmarshal(r.Body, &req); err != nil {
		t.Fatal(err)
	}
	return req
}

// TestDesignLifeFitsCaches pins what makes the design-session tier mix
// repeat exactly: the clients share no structure, and one life's keys
// and structures fit the 256-entry LRU and the 8-entry delta index, so
// nothing is evicted whatever the interleaving.
func TestDesignLifeFitsCaches(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p, _ := NewPlan(designSession, seed)
		keys := map[string]bool{}
		structs := map[string]int{}
		for _, w := range p.Warmup {
			keys["explore "+w.CanonicalKey()] = true
		}
		for c, seq := range p.Clients {
			for _, r := range seq {
				req := decodeReq(t, r)
				keys[r.Path+" "+req.CanonicalKey()] = true
				if owner, ok := structs[req.StructuralKey()]; ok && owner != c {
					t.Fatalf("seed %d: clients %d and %d share a structure", seed, owner, c)
				}
				structs[req.StructuralKey()] = c
			}
		}
		if len(keys) > 256 || len(structs) > 8 {
			t.Errorf("seed %d: %d keys, %d structures per life; want <= 256 and <= 8", seed, len(keys), len(structs))
		}
	}
}

func TestColdExploresStructurallyNew(t *testing.T) {
	p, _ := NewPlan(coldExplore, 3)
	seen := map[string]bool{}
	for _, w := range p.Warmup {
		seen[w.StructuralKey()] = true
	}
	for _, r := range allRequests(p) {
		if r.Path != "/v1/explore" {
			continue
		}
		k := decodeReq(t, r).StructuralKey()
		if seen[k] {
			t.Fatalf("structure %s repeats", k)
		}
		seen[k] = true
	}
}

// TestSessionsFeasible checks every closing recommendation has an
// answer: the constraint grids never make a session infeasible.
func TestSessionsFeasible(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		p, _ := NewPlan(designSession, seed)
		for _, seq := range p.Clients {
			for _, r := range seq {
				if r.Path != "/v1/recommend" {
					continue
				}
				all, err := core.Explore(decodeReq(t, r))
				if err != nil {
					t.Fatal(err)
				}
				if len(core.Feasible(all)) == 0 {
					t.Errorf("seed %d: %s has no feasible design", seed, r.Body)
				}
			}
		}
	}
}

func exploreFixture(t *testing.T) (core.Requirements, *service.ExploreResponse) {
	t.Helper()
	req := core.Requirements{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.6, DefectsPerCm2: 0.5, MaxPowerMW: 600}
	resp, err := service.BuildExplore(context.Background(), req, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Frontier) < 2 {
		t.Fatalf("fixture frontier has %d members", len(resp.Frontier))
	}
	return req, resp
}

func encode(t *testing.T, v any) []byte {
	t.Helper()
	b, err := service.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestExploreChecksRejectCorruption(t *testing.T) {
	req, good := exploreFixture(t)
	if err := checkExplore(req, encode(t, good)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	if err := oracleExplore(context.Background(), req, encode(t, good)); err != nil {
		t.Fatalf("valid response rejected by the oracle: %v", err)
	}
	cases := map[string]func(r *service.ExploreResponse){
		"dominated member": func(r *service.ExploreResponse) {
			m := r.Frontier[0]
			m.Seq = 1 << 20
			m.AreaMm2 += 1
			r.Frontier = append(r.Frontier, m)
			r.Pruned-- // keep the counter identity, so only dominance can catch it
		},
		"counter identity": func(r *service.ExploreResponse) { r.Pruned++ },
		"power cap":        func(r *service.ExploreResponse) { r.Frontier[1].PowerMW = req.MaxPowerMW + 1 },
		"bandwidth floor":  func(r *service.ExploreResponse) { r.Frontier[1].SustainedGBps = req.BandwidthGBps / 2 },
		"capacity":         func(r *service.ExploreResponse) { r.Frontier[1].Macros++ },
		"pick off front":   func(r *service.ExploreResponse) { r.Picks[0].Seq = -1 },
	}
	for name, corrupt := range cases {
		var bad service.ExploreResponse
		if err := json.Unmarshal(encode(t, good), &bad); err != nil {
			t.Fatal(err)
		}
		corrupt(&bad)
		if err := checkExplore(req, encode(t, &bad)); err == nil {
			t.Errorf("%s: corrupted response passed the checks", name)
		}
	}
	// A tier that served a subtly different body fails the oracle even
	// where the structural checks still hold.
	var drift service.ExploreResponse
	json.Unmarshal(encode(t, good), &drift)
	drift.Frontier[0].CostUSD *= 1 + 1e-12
	if err := oracleExplore(context.Background(), req, encode(t, &drift)); err == nil {
		t.Error("drifted body passed the oracle")
	}
}

func TestRecommendChecksRejectCorruption(t *testing.T) {
	req := core.Requirements{CapacityMbit: 8, BandwidthGBps: 1, HitRate: 0.7, MaxAreaMm2: 20}
	good, err := service.BuildRecommend(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRecommend(req, encode(t, good)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	if err := oracleRecommend(req, encode(t, good)); err != nil {
		t.Fatalf("valid response rejected by the oracle: %v", err)
	}
	good.Picks[0].AreaMm2 = req.MaxAreaMm2 + 1
	if err := checkRecommend(req, encode(t, good)); err == nil {
		t.Error("pick over the area cap passed the checks")
	}
}

func TestSimulateChecksRejectCorruption(t *testing.T) {
	p, _ := NewPlan(controllerSim, 1)
	var req service.SimulateRequest
	if err := json.Unmarshal(p.Clients[0][0].Body, &req); err != nil {
		t.Fatal(err)
	}
	good, err := service.BuildSimulate(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSimulate(req, encode(t, good)); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	cases := map[string]func(r *service.SimulateResponse){
		"bits moved":      func(r *service.SimulateResponse) { r.Clients[0].BitsMoved += 8 },
		"request count":   func(r *service.SimulateResponse) { r.Clients[1].Requests-- },
		"sustained":       func(r *service.SimulateResponse) { r.SustainedGBps *= 1.01 },
		"above peak":      func(r *service.SimulateResponse) { r.PeakGBps = r.SustainedGBps / 2 },
		"percentile rank": func(r *service.SimulateResponse) { r.Clients[0].P95Ns = r.Clients[0].P50Ns / 2 },
	}
	for name, corrupt := range cases {
		var bad service.SimulateResponse
		if err := json.Unmarshal(encode(t, good), &bad); err != nil {
			t.Fatal(err)
		}
		corrupt(&bad)
		if err := checkSimulate(req, encode(t, &bad)); err == nil {
			t.Errorf("%s: corrupted response passed the checks", name)
		}
	}
}

func TestDigestDeterministic(t *testing.T) {
	a, n, err := simDigest(2)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _ := simDigest(2)
	if a != b || n != livesPerCycle[controllerSim]*numClients*simPerClient {
		t.Fatalf("digest %s/%s over %d responses", a, b, n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v %v %v", q1, q2, q3)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := NewRun("bogus", 1); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Fatalf("err = %v", err)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram()
	var xs []float64
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		d := time.Duration(math.Exp(rng.Float64()*12) * 1e3) // 1 µs .. 160 ms
		h.add(d)
		xs = append(xs, ms(d))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := xs[rank(q, len(xs))-1]
		if got := h.quantileMS(q); math.Abs(got-exact) > exact*(histStep-1) {
			t.Errorf("q=%v: histogram %v, exact %v", q, got, exact)
		}
	}
	before := len(h.counts)
	h.add(time.Hour)
	h.add(0)
	if len(h.counts) != before || h.n != 20002 {
		t.Errorf("out-of-range durations resized the histogram or were lost")
	}
}
