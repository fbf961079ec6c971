package service

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"edram/internal/scenario"
)

const testReq = `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5}`

func post(t *testing.T, client *http.Client, url, body string) (int, string, http.Header) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b), resp.Header
}

// TestCoalescingAndCache is the acceptance test of the three scaling
// layers: two identical concurrent explores share one computation
// (coalesced counter = 1), and a third request afterwards is a cache
// hit, byte-identical to the miss.
func TestCoalescingAndCache(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	// The barrier: the first request signals when its computation
	// starts, then blocks until we release it — time enough for the
	// second request to join the flight.
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	computed := map[string]int{}
	srv.computeStarted = func(endpoint, key string) {
		mu.Lock()
		computed[key]++
		mu.Unlock()
		once.Do(func() {
			close(started)
			<-gate
		})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	url := ts.URL + "/v1/recommend"
	client := ts.Client()

	type reply struct {
		status int
		body   string
		cache  string
	}
	replies := make(chan reply, 2)
	request := func() {
		status, body, hdr := post(t, client, url, testReq)
		replies <- reply{status, body, hdr.Get("X-Cache")}
	}
	go request()
	<-started // request 1 is inside its computation
	go request()
	// Let request 2 reach the flight group before the gate opens; if it
	// missed the flight it would start a second computation and the
	// miss-counter assertion below would catch it.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	a, b := <-replies, <-replies
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d, %d; bodies %q, %q", a.status, b.status, a.body, b.body)
	}
	if a.body != b.body {
		t.Error("coalesced request body differs from the originator's")
	}
	caches := a.cache + "+" + b.cache
	if !strings.Contains(caches, "miss") || !strings.Contains(caches, "coalesced") {
		t.Errorf("X-Cache pair = %q, want one miss and one coalesced", caches)
	}
	// One computation per key: the recommend, and below it the
	// explore answer it reads through the same cached read path.
	mu.Lock()
	if len(computed) != 2 {
		t.Errorf("computed keys = %v, want the recommend and its explore answer", computed)
	}
	for key, n := range computed {
		if n != 1 {
			t.Errorf("key %s computed %d times, want exactly 1 (coalescing failed)", key, n)
		}
	}
	mu.Unlock()
	if got := srv.cacheMisses.Value(); got != 2 {
		t.Errorf("cache misses = %d, want 2", got)
	}
	if got := srv.coalescedReqs.Value(); got != 1 {
		t.Errorf("coalesced counter = %d, want 1", got)
	}

	// The third request replays the cached bytes.
	status, body, hdr := post(t, client, url, testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("third request: status %d, X-Cache %q", status, hdr.Get("X-Cache"))
	}
	if body != a.body {
		t.Error("cache hit is not byte-identical to the original computation")
	}
	if got := srv.cacheHits.Value(); got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}

	// A semantically identical respelling (reordered keys, trailing
	// float forms) maps to the same canonical key: still a hit.
	respelled := `{"hit_rate":0.50,"bandwidth_gbps":1,"capacity_mbit":16}`
	status, body, hdr = post(t, client, url, respelled)
	if status != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Errorf("respelled request: status %d, X-Cache %q, want a cache hit", status, hdr.Get("X-Cache"))
	}
	if body != a.body {
		t.Error("respelled request body differs")
	}

	// The scrape reports every series the acceptance criteria name.
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"edramd_requests_total", "edramd_request_seconds_bucket",
		"edramd_cache_hits_total", "edramd_cache_misses_total",
		"edramd_coalesced_requests_total", "edramd_in_flight_requests",
		"edramd_workers_capacity",
	} {
		if !strings.Contains(string(scrape), series) {
			t.Errorf("metrics scrape missing %s", series)
		}
	}
}

func TestDistinctRequestsComputeSeparately(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	r1 := `{"capacity_mbit":16,"bandwidth_gbps":1.0,"hit_rate":0.5}`
	r2 := `{"capacity_mbit":16,"bandwidth_gbps":2.0,"hit_rate":0.5}`
	s1, b1, _ := post(t, ts.Client(), ts.URL+"/v1/recommend", r1)
	s2, b2, _ := post(t, ts.Client(), ts.URL+"/v1/recommend", r2)
	if s1 != 200 || s2 != 200 {
		t.Fatalf("statuses %d, %d", s1, s2)
	}
	if b1 == b2 {
		t.Error("distinct requirements produced identical responses")
	}
	// Each recommend misses twice: its own key and the explore answer
	// it reads.
	if got := srv.cacheMisses.Value(); got != 4 {
		t.Errorf("computations = %d, want 4", got)
	}
}

func TestValidationAndErrorStatuses(t *testing.T) {
	srv := NewServer(Config{Workers: 1, MaxBodyBytes: 256})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	// Malformed JSON.
	status, body, _ := post(t, client, ts.URL+"/v1/explore", `{"capacity_mbit":`)
	if status != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400 (%s)", status, body)
	}
	// Unknown field.
	status, body, _ = post(t, client, ts.URL+"/v1/explore", `{"capacity_mbits":16}`)
	if status != http.StatusBadRequest || !strings.Contains(body, "capacity_mbits") {
		t.Errorf("unknown field: status %d body %q, want 400 naming the field", status, body)
	}
	// Every violation listed, with the same wording as the model layer.
	status, body, _ = post(t, client, ts.URL+"/v1/explore", `{"capacity_mbit":-1,"hit_rate":2}`)
	if status != http.StatusBadRequest {
		t.Fatalf("invalid requirements: status %d, want 400", status)
	}
	for _, frag := range []string{"capacity must be positive", "bandwidth must be positive", "hit rate 2 out of [0,1]"} {
		if !strings.Contains(body, frag) {
			t.Errorf("validation body %q missing %q", body, frag)
		}
	}
	// Oversized body.
	status, _, _ = post(t, client, ts.URL+"/v1/explore", `{"capacity_mbit":16,"bandwidth_gbps":1,"hit_rate":0.5,"processes":[`+strings.Repeat(" ", 300)+`]}`)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", status)
	}
	// Unknown experiment id is a domain error: 422.
	status, body, _ = post(t, client, ts.URL+"/v1/experiments", `{"ids":["NOPE"]}`)
	if status != http.StatusUnprocessableEntity || !strings.Contains(body, "NOPE") {
		t.Errorf("unknown experiment: status %d body %q, want 422 naming the id", status, body)
	}
	// Simulate validation: unbounded client, bad policy — all reported.
	status, body, _ = post(t, client, ts.URL+"/v1/simulate",
		`{"spec":{"capacity_mbit":16,"interface_bits":64},"options":{"policy":"psychic"},"clients":[{"name":"cpu","kind":"sequential","rate_gbps":1}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("simulate validation: status %d, want 400", status)
	}
	for _, frag := range []string{"count must be positive", "unknown policy"} {
		if !strings.Contains(body, frag) {
			t.Errorf("simulate validation body %q missing %q", body, frag)
		}
	}
}

func TestSimulateAndDatasheetEndpoints(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	simReq := `{"spec":{"capacity_mbit":16,"interface_bits":64},
		"options":{"policy":"round-robin"},
		"clients":[{"name":"cpu","kind":"sequential","rate_gbps":0.8,"count":2000},
		           {"name":"dsp","kind":"random","rate_gbps":0.4,"count":1000,"window_b":65536,"seed":7}]}`
	status, body, _ := post(t, client, ts.URL+"/v1/simulate", simReq)
	if status != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", status, body)
	}
	for _, frag := range []string{`"sustained_gbps"`, `"hit_rate"`, `"clients"`, `"p95_ns"`, `"cpu"`, `"dsp"`} {
		if !strings.Contains(body, frag) {
			t.Errorf("simulate body missing %s", frag)
		}
	}
	// Same seed, same stream: a repeat is a cache hit with identical bytes.
	status2, body2, hdr := post(t, client, ts.URL+"/v1/simulate", simReq)
	if status2 != http.StatusOK || hdr.Get("X-Cache") != "hit" || body2 != body {
		t.Errorf("simulate repeat: status %d, X-Cache %q, identical=%t", status2, hdr.Get("X-Cache"), body2 == body)
	}

	status, body, _ = post(t, client, ts.URL+"/v1/datasheet", `{"capacity_mbit":16,"interface_bits":128,"redundancy":"std"}`)
	if status != http.StatusOK {
		t.Fatalf("datasheet: status %d: %s", status, body)
	}
	for _, frag := range []string{`"clock_mhz"`, `"peak_gbps"`, `"text"`, "Embedded DRAM macro"} {
		if !strings.Contains(body, frag) {
			t.Errorf("datasheet body missing %s", frag)
		}
	}
	// Unbuildable spec: 422.
	status, _, _ = post(t, client, ts.URL+"/v1/datasheet", `{"capacity_mbit":16,"interface_bits":48}`)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("unbuildable spec: status %d, want 422", status)
	}
}

func TestExperimentsEndpointFiltered(t *testing.T) {
	srv := NewServer(Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	status, body, _ := post(t, ts.Client(), ts.URL+"/v1/experiments", `{"ids":["E1"]}`)
	if status != http.StatusOK {
		t.Fatalf("experiments: status %d: %s", status, body)
	}
	if !strings.Contains(body, `"id":"E1"`) || strings.Contains(body, `"id":"E2"`) {
		t.Errorf("filter not applied: %s", body[:min(200, len(body))])
	}
}

func TestHealthz(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(b), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, b)
	}
}

// TestMetricsEndpointLabelBounded: requests to arbitrary paths must
// not mint new metric series — unmatched paths share the "other"
// endpoint label.
func TestMetricsEndpointLabelBounded(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{"/no/such/route", "/no/such/route2"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	if strings.Contains(body, "/no/such/route") {
		t.Error("metrics expose a client-controlled path label")
	}
	if !strings.Contains(body, `endpoint="other"`) {
		t.Error("unmatched paths are not collapsed into the \"other\" label")
	}
}

// TestGracefulDrain verifies the acceptance criterion that shutdown
// lets in-flight requests finish: a request is held mid-computation,
// the serve context is cancelled, and the request still completes with
// a 200 before ListenAndServe returns.
func TestGracefulDrain(t *testing.T) {
	srv := NewServer(Config{Workers: 1, DrainTimeout: 10 * time.Second})
	started := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	srv.computeStarted = func(endpoint, key string) {
		once.Do(func() {
			close(started)
			<-gate
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	servErr := make(chan error, 1)
	go func() {
		servErr <- srv.ListenAndServe(ctx, "127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-servErr:
		t.Fatalf("server did not start: %v", err)
	}

	client := &http.Client{Timeout: 30 * time.Second}
	reply := make(chan int, 1)
	go func() {
		resp, err := client.Post(base+"/v1/recommend", "application/json", strings.NewReader(testReq))
		if err != nil {
			reply <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reply <- resp.StatusCode
	}()

	<-started // the request is mid-computation
	cancel()  // shutdown begins while it is in flight
	select {
	case err := <-servErr:
		t.Fatalf("server exited (%v) before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
		// Still draining, as it should be.
	}
	close(gate) // let the computation finish

	select {
	case status := <-reply:
		if status != http.StatusOK {
			t.Errorf("drained request status = %d, want 200", status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-servErr:
		if err != nil {
			t.Errorf("ListenAndServe returned %v after drain, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after draining")
	}
}

// TestWideRequestsRefused: a client whose requests take more than
// scenario.MaxBeats beats of the macro interface is a 400 on every
// path that simulates, answered by validation before any simulation
// starts (the simulator pays per beat, so a 2^40-bit request would run
// for about an hour).
func TestWideRequestsRefused(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	const wide = 1 << 40
	sim := fmt.Sprintf(`{"spec":{"capacity_mbit":4,"interface_bits":16},
		"options":{"policy":"round-robin"},
		"clients":[{"name":"huge","kind":"sequential","rate_gbps":0.5,"count":1,"bits":%d}]}`, wide)
	trials := fmt.Sprintf(`{"kind":"trials","trials":{"spec":{"capacity_mbit":16,"interface_bits":64},
		"options":{"policy":"round-robin"},
		"clients":[{"name":"huge","kind":"sequential","rate_gbps":0.5,"count":1,"bits":%d}],
		"reliability":{"ecc":"secded"},"trials":2,"seed":1}}`, wide)
	scn := strings.Replace(scenarioDoc, `"count": 500`, fmt.Sprintf(`"count": 1, "bits": %d`, wide), 1)
	cases := []struct{ name, path, body string }{
		{"simulate", "/v1/simulate", sim},
		{"trials job", "/v1/jobs", trials},
		{"scenario", "/v1/scenario", scn},
		{"scenario job", "/v1/jobs", `{"kind":"scenario","scenario":` + scn + `}`},
	}
	for _, tc := range cases {
		start := time.Now()
		status, body, _ := post(t, client, ts.URL+tc.path, tc.body)
		if status != http.StatusBadRequest || !strings.Contains(body, "beats of the") {
			t.Errorf("%s: status %d, want 400 naming the beat limit: %s", tc.name, status, body)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: refusal took %v", tc.name, d)
		}
	}

	// The limit itself is served: 64 beats of a 16-bit interface.
	at := strings.Replace(sim, fmt.Sprint(wide), fmt.Sprint(scenario.MaxBeats*16), 1)
	if status, body, _ := post(t, client, ts.URL+"/v1/simulate", at); status != http.StatusOK {
		t.Errorf("request of exactly %d beats: status %d: %s", scenario.MaxBeats, status, body)
	}
}
