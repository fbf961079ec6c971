package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"edram/internal/core"
)

// buildExploreUnpruned assembles the explore response exactly like
// BuildExplore but without constraint pruning — the byte reference the
// pruned builder must reproduce.
func buildExploreUnpruned(t *testing.T, req core.Requirements, workers int) []byte {
	t.Helper()
	var final core.ExploreStats
	res, err := core.SweepContext(context.Background(), req,
		core.WithWorkers(workers),
		core.WithProgress(func(s core.ExploreStats) {
			if s.Done {
				final = s
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	resp := &ExploreResponse{
		SchemaVersion: SchemaVersion,
		Request:       req,
		Key:           HashKey("explore", req.CanonicalKey()),
		Points:        final.Enumerated,
		Built:         final.Built,
		Infeasible:    final.Infeasible,
		Pruned:        final.Pruned,
		Frontier:      []CandidateJSON{},
		Picks:         []RecommendationJSON{},
	}
	frontier := res.Frontier
	for _, c := range frontier {
		resp.Frontier = append(resp.Frontier, candidateJSON(c))
	}
	for _, r := range core.Quantize(frontier) {
		resp.Picks = append(resp.Picks, RecommendationJSON{Role: r.Role, CandidateJSON: candidateJSON(r.Candidate)})
	}
	b, err := Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildExplorePrunedByteParity pins the tentpole's service-level
// guarantee: the (always pruned) BuildExplore encodes byte-identically
// to a response assembled from an unpruned sweep.
func TestBuildExplorePrunedByteParity(t *testing.T) {
	for _, req := range []core.Requirements{
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5},
		{CapacityMbit: 32, BandwidthGBps: 2.5, HitRate: 0.7, MaxAreaMm2: 60, MinClockMHz: 80},
		{CapacityMbit: 16, BandwidthGBps: 1, HitRate: 0.5, MaxAreaMm2: 0.001},
	} {
		want := buildExploreUnpruned(t, req, 2)
		resp, err := BuildExplore(context.Background(), req, 2, nil)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got, err := Encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("pruned BuildExplore bytes differ from unpruned for %+v:\npruned   %.200s\nunpruned %.200s", req, got, want)
		}
	}
}

// deltaTestReq tweaks testReq's area constraint only — same structural
// key, different canonical key.
const deltaTestReq = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5,"max_area_mm2":25}`

// TestExploreDeltaServeByteParity drives the delta tier end to end: a
// cold explore records the state, a constraint tweak of it is served
// with X-Cache: hit-delta, and the body is byte-identical to a cold
// server's sweep of the tweaked requirements.
func TestExploreDeltaServeByteParity(t *testing.T) {
	cold := NewServer(Config{Workers: 2})
	tsCold := httptest.NewServer(cold)
	status, want, _ := post(t, tsCold.Client(), tsCold.URL+"/v1/explore", deltaTestReq)
	tsCold.Close()
	if status != http.StatusOK {
		t.Fatalf("cold reference: status %d: %s", status, want)
	}

	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	if status, body, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", testReq); status != http.StatusOK {
		t.Fatalf("base explore: status %d: %s", status, body)
	} else if hdr.Get("X-Cache") != "miss" {
		t.Fatalf("base explore X-Cache = %q, want miss", hdr.Get("X-Cache"))
	}
	status, got, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", deltaTestReq)
	if status != http.StatusOK {
		t.Fatalf("delta explore: status %d: %s", status, got)
	}
	if tag := hdr.Get("X-Cache"); tag != "hit-delta" {
		t.Fatalf("delta explore X-Cache = %q, want hit-delta", tag)
	}
	if got != want {
		t.Errorf("delta-served body differs from cold sweep:\ndelta %.200s\ncold  %.200s", got, want)
	}

	// The bytes entered the result cache under the tweaked request's
	// own key: an identical re-POST is a plain memory hit.
	if _, _, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", deltaTestReq); hdr.Get("X-Cache") != "hit" {
		t.Errorf("re-POST after delta serve X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}

	// Metrics surfaced the tier.
	status, metrics, _ := do(t, ts.Client(), "GET", ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, want := range []string{
		`edramd_cache_tier_hits_total{tier="delta"} 1`,
		"edramd_delta_reused_evals_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestDeltaJobByteParity pins the async form: an explore job submitted
// after a warm explore of the same structure is served by the delta
// tier and returns exactly the cold synchronous bytes, and the same job
// on a cold daemon runs the checkpointed sweep with the same bytes.
func TestDeltaJobByteParity(t *testing.T) {
	cold := NewServer(Config{Workers: 2})
	tsCold := httptest.NewServer(cold)
	status, want, _ := post(t, tsCold.Client(), tsCold.URL+"/v1/explore", deltaTestReq)
	tsCold.Close()
	if status != http.StatusOK {
		t.Fatalf("cold reference: status %d: %s", status, want)
	}
	deltaJob := `{"kind":"explore","explore":` + deltaTestReq + `}`

	t.Run("warm", func(t *testing.T) {
		srv := NewServer(Config{Workers: 2})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Close()
		if status, body, _ := post(t, ts.Client(), ts.URL+"/v1/explore", testReq); status != http.StatusOK {
			t.Fatalf("base explore: status %d: %s", status, body)
		}
		status, body, _ := post(t, ts.Client(), ts.URL+"/v1/jobs", deltaJob)
		if status != http.StatusAccepted {
			t.Fatalf("job submit: status %d: %s", status, body)
		}
		id := jobID(t, body)
		if st := waitJob(t, ts.Client(), ts.URL, id); st.State != "succeeded" {
			t.Fatalf("delta job state %s: %s", st.State, st.Error)
		}
		if status, got, _ := do(t, ts.Client(), "GET", ts.URL+"/v1/jobs/"+id+"/result"); status != http.StatusOK || got != want {
			t.Errorf("warm delta job result differs from cold sweep (status %d)", status)
		}
		// The delta tier served it: one hit, and no checkpointed sweep.
		if v := metricValue(t, ts.Client(), ts.URL, `edramd_cache_tier_hits_total{tier="delta"}`); v != "1" {
			t.Errorf("delta tier hits after warm explore job = %q, want 1", v)
		}
		// The job cross-filled the synchronous tier under the explore
		// key.
		if _, _, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", deltaTestReq); hdr.Get("X-Cache") != "hit" {
			t.Errorf("explore after delta job X-Cache = %q, want hit", hdr.Get("X-Cache"))
		}
	})

	t.Run("cold-fallback", func(t *testing.T) {
		srv := NewServer(Config{Workers: 2})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Close()
		status, body, _ := post(t, ts.Client(), ts.URL+"/v1/jobs", deltaJob)
		if status != http.StatusAccepted {
			t.Fatalf("job submit: status %d: %s", status, body)
		}
		id := jobID(t, body)
		if st := waitJob(t, ts.Client(), ts.URL, id); st.State != "succeeded" {
			t.Fatalf("delta job state %s: %s", st.State, st.Error)
		}
		if status, got, _ := do(t, ts.Client(), "GET", ts.URL+"/v1/jobs/"+id+"/result"); status != http.StatusOK || got != want {
			t.Errorf("cold delta job result differs from cold sweep (status %d)", status)
		}
	})
}

// TestDeltaIndexEviction pins the LRU bound: the index never retains
// more than maxDeltaStates states.
func TestDeltaIndexEviction(t *testing.T) {
	ix := newDeltaIndex()
	var first core.Requirements
	for i := 0; i < maxDeltaStates+3; i++ {
		req := core.Requirements{CapacityMbit: 8 << uint(i%4), BandwidthGBps: 1, HitRate: 0.5 + float64(i)*0.01}
		if i == 0 {
			first = req
		}
		st, err := core.NewDeltaState(req)
		if err != nil {
			t.Fatal(err)
		}
		st.Seal()
		ix.store(st)
	}
	if n := len(ix.entries); n != maxDeltaStates {
		t.Fatalf("index holds %d entries, want %d", n, maxDeltaStates)
	}
	if ix.lookup(first) != nil {
		t.Fatalf("oldest state survived eviction")
	}
}
