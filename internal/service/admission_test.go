package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAdmissionEndpointBudget: the gate rejects past the per-endpoint
// concurrency budget and recovers on release.
func TestAdmissionEndpointBudget(t *testing.T) {
	a := newAdmission(4, 0, map[string]int{"/v1/explore": 1})
	ctx := context.Background()

	release, err := a.admit(ctx, "/v1/explore")
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	_, err = a.admit(ctx, "/v1/explore")
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != "endpoint_budget" {
		t.Fatalf("second admit: err %v, want endpoint_budget overload", err)
	}
	if secs, _ := strconv.Atoi(oe.retryAfterSeconds()); secs < 1 {
		t.Errorf("Retry-After %q, want >= 1s", oe.retryAfterSeconds())
	}
	// Other endpoints are unaffected by one endpoint's budget.
	release2, err := a.admit(ctx, "/v1/simulate")
	if err != nil {
		t.Fatalf("other endpoint: %v", err)
	}
	release2(0)
	release(time.Second)
	if _, err := a.admit(ctx, "/v1/explore"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
}

// TestAdmissionQueueBound: the global admitted count is bounded by
// MaxQueueDepth; a negative depth disables the bound.
func TestAdmissionQueueBound(t *testing.T) {
	a := newAdmission(1, 2, nil)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := a.admit(ctx, "/v1/explore"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	_, err := a.admit(ctx, "/v1/recommend")
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != "queue_full" {
		t.Fatalf("over-depth admit: err %v, want queue_full overload", err)
	}

	unbounded := newAdmission(1, -1, nil)
	for i := 0; i < 100; i++ {
		if _, err := unbounded.admit(ctx, "/v1/explore"); err != nil {
			t.Fatalf("unbounded admit %d: %v", i, err)
		}
	}
}

// TestAdmissionDeadlineShed: a request whose estimated queue wait
// exceeds its remaining deadline is rejected at the door.
func TestAdmissionDeadlineShed(t *testing.T) {
	a := newAdmission(1, 0, nil)
	ctx := context.Background()

	// Teach the EWMA that explores take ~10s, and hold one admission so
	// a newcomer sees a backlog.
	release, err := a.admit(ctx, "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	release(10 * time.Second)
	hold, err := a.admit(ctx, "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	defer hold(0)

	// 50ms of deadline against a ~20s wait estimate: shed.
	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	_, err = a.admit(dctx, "/v1/explore")
	var oe *overloadError
	if !errors.As(err, &oe) || oe.reason != "deadline" {
		t.Fatalf("deadline admit: err %v, want deadline overload", err)
	}
	// A deadline-free request still queues.
	ok, err := a.admit(ctx, "/v1/explore")
	if err != nil {
		t.Fatalf("deadline-free admit: %v", err)
	}
	ok(0)
}

// TestOverloadSheds503 is the HTTP-level overload acceptance test:
// with a budget of one concurrent recommend, a second distinct request
// is shed with 503 + Retry-After, the shed/admitted counters record
// it, and the occupant still completes normally.
func TestOverloadSheds503(t *testing.T) {
	srv := NewServer(Config{
		Workers:        1,
		EndpointBudget: map[string]int{"/v1/recommend": 1},
	})
	defer srv.Close()
	admitted := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	srv.admittedHook = func(endpoint string) {
		once.Do(func() {
			close(admitted)
			<-gate
		})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	first := make(chan int, 1)
	go func() {
		status, _, _ := post(t, client, ts.URL+"/v1/recommend", testReq)
		first <- status
	}()
	<-admitted // request 1 holds the endpoint's whole budget

	// A different body (no coalescing) on the same endpoint: shed.
	otherReq := `{"capacity_mbit":32,"bandwidth_gbps":1.0,"hit_rate":0.5}`
	status, body, hdr := post(t, client, ts.URL+"/v1/recommend", otherReq)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("overloaded recommend: status %d, want 503: %s", status, body)
	}
	if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want integer >= 1", hdr.Get("Retry-After"))
	}
	if !strings.Contains(body, "endpoint_budget") {
		t.Errorf("503 body %q does not name the shed reason", body)
	}

	close(gate)
	if got := <-first; got != http.StatusOK {
		t.Errorf("occupant finished with %d, want 200", got)
	}

	// The overload is observable: shed and admitted counters on
	// /metrics.
	status, metrics, _ := do(t, client, "GET", ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, frag := range []string{
		`edramd_shed_total{endpoint="/v1/recommend",reason="endpoint_budget"} 1`,
		`edramd_admitted_total{endpoint="/v1/recommend"} 1`,
	} {
		if !strings.Contains(metrics, frag) {
			t.Errorf("metrics missing %q", frag)
		}
	}
}

// TestJobStoreSheds503: the job store's MaxActive bound surfaces as a
// 503 with Retry-After on POST /v1/jobs, not as silent queueing.
func TestJobStoreSheds503(t *testing.T) {
	srv := NewServer(Config{Workers: 2, MaxActiveJobs: 1, JobCheckpointEvery: 256})
	defer srv.Close()
	started := make(chan struct{})
	hold := make(chan struct{})
	defer close(hold)
	var once sync.Once
	srv.jobsStore.OnCheckpoint = func(_ context.Context, id string, n int) {
		once.Do(func() {
			close(started)
			<-hold
		})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	status, body, _ := post(t, client, ts.URL+"/v1/jobs", jobTestReq)
	if status != http.StatusAccepted {
		t.Fatalf("first job: status %d: %s", status, body)
	}
	<-started

	status, body, hdr := post(t, client, ts.URL+"/v1/jobs", trialsTestReq)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("second active job: status %d, want 503: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("job shed without Retry-After")
	}
	status, metrics, _ := do(t, client, "GET", ts.URL+"/metrics")
	if status != http.StatusOK || !strings.Contains(metrics, `edramd_shed_total{endpoint="/v1/jobs",reason="jobs"} 1`) {
		t.Errorf("metrics missing the jobs shed counter")
	}
}
