package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"edram/internal/diskcache"
)

// TestDiskWarmStartServesHitWithoutRecompute pins the warm start: a
// replica restarted on the cache directory serves the original miss's
// exact bytes as a plain hit, and never enters the compute path to do
// it.
func TestDiskWarmStartServesHitWithoutRecompute(t *testing.T) {
	dir := t.TempDir()

	s1 := NewServer(Config{Workers: 2, CacheDir: dir})
	if err := s1.DiskCacheErr(); err != nil {
		t.Fatalf("open disk cache: %v", err)
	}
	ts1 := httptest.NewServer(s1)
	status, want, hdr := post(t, ts1.Client(), ts1.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first explore: status %d, X-Cache %q", status, hdr.Get("X-Cache"))
	}
	ts1.Close()
	s1.Close() // graceful drain snapshots the segment log

	s2 := NewServer(Config{Workers: 2, CacheDir: dir})
	defer s2.Close()
	if err := s2.DiskCacheErr(); err != nil {
		t.Fatalf("warm-start disk cache: %v", err)
	}
	if got := s2.DiskStats().ReplayedEntries; got != 1 {
		t.Fatalf("replayed entries = %d, want 1", got)
	}
	var computes atomic.Int64
	s2.computeStarted = func(endpoint, key string) { computes.Add(1) }
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()

	status, got, hdr := post(t, ts2.Client(), ts2.URL+"/v1/explore", testReq)
	if status != http.StatusOK {
		t.Fatalf("warm explore: status %d: %s", status, got)
	}
	if hdr.Get("X-Cache") != "hit" {
		t.Errorf("warm explore: X-Cache %q, want hit", hdr.Get("X-Cache"))
	}
	if got != want {
		t.Errorf("warm-start bytes differ from original miss:\n got %d bytes %.120s\nwant %d bytes %.120s",
			len(got), got, len(want), want)
	}
	if n := computes.Load(); n != 0 {
		t.Errorf("warm-start hit ran the compute path %d times, want 0", n)
	}
}

// TestCacheTierMetrics checks the closed-set tier series: the result
// cache exports hits and misses as tier "memory" whether or not it is
// logged to disk, and the disk-log gauges appear only with a CacheDir.
func TestCacheTierMetrics(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(Config{Workers: 2, CacheDir: dir})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := ts.Client()

	post(t, client, ts.URL+"/v1/explore", testReq) // miss
	post(t, client, ts.URL+"/v1/explore", testReq) // hit

	status, body, _ := do(t, client, "GET", ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", status)
	}
	for _, series := range []string{
		`edramd_cache_tier_hits_total{tier="memory"} 1`,
		`edramd_cache_tier_misses_total{tier="memory"} 1`,
		`edramd_disk_cache_entries 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	for _, gone := range []string{`tier="disk"`, "edramd_disk_cache_evictions "} {
		if strings.Contains(body, gone) {
			t.Errorf("/metrics still exports %q", gone)
		}
	}

	mem := httptest.NewServer(NewServer(Config{Workers: 2}))
	defer mem.Close()
	post(t, mem.Client(), mem.URL+"/v1/explore", testReq)
	if v := metricValue(t, mem.Client(), mem.URL, `edramd_cache_tier_misses_total{tier="memory"}`); v != "1" {
		t.Errorf("memory-only daemon: memory tier misses = %q, want 1", v)
	}
	if v := metricValue(t, mem.Client(), mem.URL, "edramd_disk_cache_entries"); v != "" {
		t.Errorf("memory-only daemon exports edramd_disk_cache_entries %s", v)
	}
}

// TestCacheEntriesBoundsCache pins the one cache budget: CacheEntries
// caps the result cache with and without a CacheDir, the overflow is
// counted in edramd_cache_evictions_total, and the evicted (least
// recently used) key misses again.
func TestCacheEntriesBoundsCache(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		t.Run(fmt.Sprintf("dir=%t", dir != ""), func(t *testing.T) {
			srv := NewServer(Config{Workers: 2, CacheEntries: 2, CacheDir: dir})
			defer srv.Close()
			if err := srv.DiskCacheErr(); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			defer ts.Close()
			sheet := func(bits int) string {
				return `{"capacity_mbit":16,"interface_bits":` + strconv.Itoa(bits) + `}`
			}
			for _, bits := range []int{64, 128, 256} {
				if status, body, hdr := post(t, ts.Client(), ts.URL+"/v1/datasheet", sheet(bits)); status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
					t.Fatalf("datasheet %d: status %d, X-Cache %q: %s", bits, status, hdr.Get("X-Cache"), body)
				}
			}
			if n := srv.DiskStats().Entries; n != 2 {
				t.Errorf("cache holds %d entries, want the CacheEntries cap of 2", n)
			}
			if v := metricValue(t, ts.Client(), ts.URL, "edramd_cache_evictions_total"); v != "1" {
				t.Errorf("edramd_cache_evictions_total = %q, want 1", v)
			}
			if _, _, hdr := post(t, ts.Client(), ts.URL+"/v1/datasheet", sheet(256)); hdr.Get("X-Cache") != "hit" {
				t.Errorf("newest key: X-Cache %q, want hit", hdr.Get("X-Cache"))
			}
			if _, _, hdr := post(t, ts.Client(), ts.URL+"/v1/datasheet", sheet(64)); hdr.Get("X-Cache") != "miss" {
				t.Errorf("evicted key: X-Cache %q, want miss", hdr.Get("X-Cache"))
			}
		})
	}
}

// TestDiskGenerationMismatchRecomputes pins self-invalidation: a
// snapshot written under a different generation tag (older schema or
// key-tag set) is discarded wholesale at boot instead of serving
// stale bytes.
func TestDiskGenerationMismatchRecomputes(t *testing.T) {
	dir := t.TempDir()

	// Simulate a snapshot left behind by a binary with different wire
	// tags: same log format, different generation string.
	old, err := diskcache.Open(dir, diskcache.Options{Generation: "edram/gen|schema=0|tags=stale"})
	if err != nil {
		t.Fatal(err)
	}
	old.Put(HashKey("explore", "stale"), []byte(`{"stale":true}`))
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(Config{Workers: 2, CacheDir: dir})
	defer srv.Close()
	if err := srv.DiskCacheErr(); err != nil {
		t.Fatalf("open over stale snapshot: %v", err)
	}
	st := srv.DiskStats()
	if st.Invalidations != 1 || st.ReplayedEntries != 0 {
		t.Fatalf("stats after stale snapshot: invalidations=%d replayed=%d, want 1, 0", st.Invalidations, st.ReplayedEntries)
	}

	var computes atomic.Int64
	srv.computeStarted = func(endpoint, key string) { computes.Add(1) }
	ts := httptest.NewServer(srv)
	defer ts.Close()
	status, _, hdr := post(t, ts.Client(), ts.URL+"/v1/explore", testReq)
	if status != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Errorf("explore over invalidated snapshot: status %d, X-Cache %q, want 200 miss", status, hdr.Get("X-Cache"))
	}
	if computes.Load() == 0 {
		t.Error("invalidated snapshot did not trigger recomputation")
	}
}
