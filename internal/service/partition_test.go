package service

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"edram/internal/core"
)

// exploreReference computes the single-process explore bytes every
// partitioned path must reproduce exactly.
func exploreReference(t *testing.T) string {
	t.Helper()
	ref := NewServer(Config{Workers: 2})
	defer ref.Close()
	ts := httptest.NewServer(ref)
	defer ts.Close()
	status, want, _ := post(t, ts.Client(), ts.URL+"/v1/explore", testReq)
	if status != http.StatusOK {
		t.Fatalf("reference explore: status %d: %s", status, want)
	}
	return want
}

// metricValue scrapes one series (by rendered prefix) out of /metrics.
func metricValue(t *testing.T, client *http.Client, baseURL, series string) string {
	t.Helper()
	status, body, _ := do(t, client, "GET", baseURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	return ""
}

// TestPartitionParityLocalParts pins the partition loop of explore jobs:
// a job swept in N in-order partitions, checkpointing after each, is
// byte-identical to the undivided sweep, for N = 1 and N > 1.
func TestPartitionParityLocalParts(t *testing.T) {
	want := exploreReference(t)
	var req RequirementsRequest
	if err := strictUnmarshal([]byte(testReq), &req); err != nil {
		t.Fatal(err)
	}
	total := core.SweepCount(req.Requirements)
	for _, parts := range []int{1, 4} {
		srv := NewServer(Config{Workers: 2, JobCheckpointEvery: (total + parts - 1) / parts})
		ts := httptest.NewServer(srv)
		status, body, _ := post(t, ts.Client(), ts.URL+"/v1/jobs", jobTestReq)
		if status != http.StatusAccepted {
			t.Fatalf("%d-part job: submit status %d: %s", parts, status, body)
		}
		st := waitJob(t, ts.Client(), ts.URL, jobID(t, body))
		if st.State != "succeeded" {
			t.Fatalf("%d-part job: state %q (error %q), want succeeded", parts, st.State, st.Error)
		}
		if st.Progress.Checkpoints != parts {
			t.Errorf("%d-part job: %d checkpoints, want one per partition", parts, st.Progress.Checkpoints)
		}
		status, got, _ := do(t, ts.Client(), "GET", ts.URL+st.ResultPath)
		if status != http.StatusOK {
			t.Fatalf("%d-part job: result status %d: %s", parts, status, got)
		}
		if got != want {
			t.Errorf("%d-part job differs from single-process run:\n got %d bytes %.120s\nwant %d bytes %.120s",
				parts, len(got), got, len(want), want)
		}
		ts.Close()
		srv.Close()
	}
}

// TestShardMergeAssociativity is the property test: random partition
// boundaries over the full sweep, swept by sweepPartition and merged
// in random order, always fold to the canonical response bytes.
func TestShardMergeAssociativity(t *testing.T) {
	want := exploreReference(t)
	var req RequirementsRequest
	if err := strictUnmarshal([]byte(testReq), &req); err != nil {
		t.Fatal(err)
	}
	total := core.SweepCount(req.Requirements)
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()
	for trial := 0; trial < 3; trial++ {
		// Random sorted distinct cut points over (0, total).
		cuts := map[int]bool{}
		for n := 1 + rng.Intn(6); len(cuts) < n; {
			cuts[1+rng.Intn(total-1)] = true
		}
		bounds := []int{0}
		for c := range cuts {
			bounds = append(bounds, c)
		}
		bounds = append(bounds, total)
		sort.Ints(bounds)

		var parts []core.SweepResult
		for i := 0; i+1 < len(bounds); i++ {
			part, err := sweepPartition(ctx, req.Requirements, bounds[i], bounds[i+1], 2)
			if err != nil {
				t.Fatalf("trial %d partition [%d,%d): %v", trial, bounds[i], bounds[i+1], err)
			}
			if part.Enumerated != int64(bounds[i+1]-bounds[i]) {
				t.Fatalf("trial %d partition [%d,%d): enumerated %d points", trial, bounds[i], bounds[i+1], part.Enumerated)
			}
			parts = append(parts, part)
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		resp, err := exploreResponseFromMerged(req.Requirements, parts[0].Merge(parts[1:]...))
		if err != nil {
			t.Fatalf("trial %d merge: %v", trial, err)
		}
		b, err := Encode(resp)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Fatalf("trial %d (bounds %v): merged bytes differ from canonical response", trial, bounds)
		}
	}
}
