package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"edram/internal/core"
	"edram/internal/scenario"
)

// recommendOracle is the /v1/recommend reply computed the direct way:
// the picks of core.RecommendContext's unpruned sweep, or its error as
// a 422 body.
func recommendOracle(t *testing.T, req core.Requirements) (int, string) {
	t.Helper()
	var (
		v      any
		status = http.StatusOK
	)
	recs, err := core.RecommendContext(context.Background(), req, core.WithWorkers(2))
	if err != nil {
		status = http.StatusUnprocessableEntity
		v = ErrorResponse{SchemaVersion: SchemaVersion, Error: err.Error()}
	} else {
		resp := RecommendResponse{
			SchemaVersion: SchemaVersion,
			Request:       req,
			Key:           HashKey("recommend", req.CanonicalKey()),
		}
		for _, r := range recs {
			resp.Picks = append(resp.Picks, recommendationJSON(r))
		}
		v = resp
	}
	b, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return status, string(b)
}

// recommendParityRequests is the request matrix: synthetic requirement
// sets, two with nothing feasible, plus every eDRAM level the
// examples/scenarios corpus compiles to.
func recommendParityRequests(t *testing.T) []core.Requirements {
	t.Helper()
	reqs := []core.Requirements{
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5},
		{CapacityMbit: 32, BandwidthGBps: 2.5, HitRate: 0.7, MaxAreaMm2: 60, MinClockMHz: 80},
		{CapacityMbit: 16, BandwidthGBps: 2.5, HitRate: 0.8, MaxPowerMW: 400},
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 0.001},
		{CapacityMbit: 16, BandwidthGBps: 99999, HitRate: 0.8},
	}
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			continue
		}
		sc, err := scenario.Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		comp, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", e.Name(), err)
		}
		for _, lvl := range comp.Levels {
			if lvl.Kind == "edram" {
				reqs = append(reqs, lvl.Requirements)
			}
		}
	}
	return reqs
}

func reqBody(t *testing.T, req core.Requirements) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRecommendParity pins /v1/recommend to the unpruned oracle in
// every state the explore answer it reads can be in: not computed yet,
// in memory, on disk after a restart, and servable by the delta tier
// from a sibling sweep. A request with nothing feasible gets the
// oracle's 422 body in each state.
func TestRecommendParity(t *testing.T) {
	reqs := recommendParityRequests(t)
	if len(reqs) < 15 {
		t.Fatalf("request matrix has %d entries, want the corpus included", len(reqs))
	}
	type want struct {
		status int
		body   string
	}
	wants := make([]want, len(reqs))
	feasible := 0
	for i, req := range reqs {
		wants[i].status, wants[i].body = recommendOracle(t, req)
		if wants[i].status == http.StatusOK {
			feasible++
		}
	}
	if feasible == 0 || feasible == len(reqs) {
		t.Fatalf("%d of %d requests feasible, want both outcomes covered", feasible, len(reqs))
	}
	check := func(t *testing.T, ts *httptest.Server, i int) {
		t.Helper()
		status, got, _ := post(t, ts.Client(), ts.URL+"/v1/recommend", reqBody(t, reqs[i]))
		if status != wants[i].status || got != wants[i].body {
			t.Errorf("request %d %+v:\n got %d %.300s\nwant %d %.300s", i, reqs[i], status, got, wants[i].status, wants[i].body)
		}
	}
	serve := func(t *testing.T, cfg Config) *httptest.Server {
		t.Helper()
		srv := NewServer(cfg)
		ts := httptest.NewServer(srv)
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return ts
	}

	t.Run("explore-cold", func(t *testing.T) {
		for i := range reqs {
			check(t, serve(t, Config{Workers: 2}), i)
			var got string
			if resp, err := BuildRecommend(context.Background(), reqs[i], 2); err != nil {
				got = mustEncode(t, ErrorResponse{SchemaVersion: SchemaVersion, Error: err.Error()})
			} else {
				got = mustEncode(t, resp)
			}
			if got != wants[i].body {
				t.Errorf("BuildRecommend %d:\n got %.300s\nwant %.300s", i, got, wants[i].body)
			}
		}
	})

	// explore POSTs every request and counts the answers it could
	// cache; each of those must serve its recommend from a tier.
	explore := func(t *testing.T, ts *httptest.Server) int {
		t.Helper()
		cached := 0
		for _, req := range reqs {
			if status, _, _ := post(t, ts.Client(), ts.URL+"/v1/explore", reqBody(t, req)); status == http.StatusOK {
				cached++
			}
		}
		return cached
	}

	t.Run("explore-in-memory", func(t *testing.T) {
		ts := serve(t, Config{Workers: 2})
		cached := explore(t, ts)
		for i := range reqs {
			check(t, ts, i)
		}
		if v := metricValue(t, ts.Client(), ts.URL, `edramd_cache_tier_hits_total{tier="memory"}`); v != strconv.Itoa(cached) {
			t.Errorf("memory tier hits = %s, want one per cached explore (%d)", v, cached)
		}
	})

	t.Run("explore-on-disk", func(t *testing.T) {
		dir := t.TempDir()
		srv := NewServer(Config{Workers: 2, CacheDir: dir})
		ts := httptest.NewServer(srv)
		cached := explore(t, ts)
		ts.Close()
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		ts = serve(t, Config{Workers: 2, CacheDir: dir})
		for i := range reqs {
			check(t, ts, i)
		}
		if v := metricValue(t, ts.Client(), ts.URL, `edramd_cache_tier_hits_total{tier="memory"}`); v != strconv.Itoa(cached) {
			t.Errorf("memory tier hits after restart = %s, want one per replayed explore (%d)", v, cached)
		}
	})

	t.Run("delta-eligible", func(t *testing.T) {
		for i, req := range reqs {
			ts := serve(t, Config{Workers: 2})
			sibling := req
			sibling.BandwidthGBps *= 0.5
			post(t, ts.Client(), ts.URL+"/v1/explore", reqBody(t, sibling))
			check(t, ts, i)
			if v := metricValue(t, ts.Client(), ts.URL, `edramd_cache_tier_hits_total{tier="delta"}`); v != "1" {
				t.Errorf("request %d: delta tier hits = %s, want 1", i, v)
			}
		}
	})
}

func mustEncode(t *testing.T, v any) string {
	t.Helper()
	b, err := Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
