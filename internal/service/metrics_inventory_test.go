package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// inventoryMemory is every series a fresh memory-only daemon exports
// on its first /metrics scrape, with its type. The metric names and
// label sets are an API: dashboards and alerts key on them, so adding,
// renaming or dropping one must show up as a change to this list.
const inventoryMemory = `edramd_admission_queued gauge
edramd_cache_evictions_total counter
edramd_cache_hits_total counter
edramd_cache_misses_total counter
edramd_cache_tier_hits_total{tier="delta"} counter
edramd_cache_tier_hits_total{tier="memory"} counter
edramd_cache_tier_misses_total{tier="delta"} counter
edramd_cache_tier_misses_total{tier="memory"} counter
edramd_coalesced_requests_total counter
edramd_delta_reused_evals_total counter
edramd_delta_swept_points_total counter
edramd_in_flight_requests gauge
edramd_jobs_active gauge
edramd_workers_capacity gauge
edramd_workers_in_use gauge
`

// inventoryCacheDir is the same inventory for a daemon whose result
// cache is logged to a CacheDir: the memory-only set plus the
// disk-cache gauges.
const inventoryCacheDir = `edramd_admission_queued gauge
edramd_cache_evictions_total counter
edramd_cache_hits_total counter
edramd_cache_misses_total counter
edramd_cache_tier_hits_total{tier="delta"} counter
edramd_cache_tier_hits_total{tier="memory"} counter
edramd_cache_tier_misses_total{tier="delta"} counter
edramd_cache_tier_misses_total{tier="memory"} counter
edramd_coalesced_requests_total counter
edramd_delta_reused_evals_total counter
edramd_delta_swept_points_total counter
edramd_disk_cache_compactions gauge
edramd_disk_cache_dropped_records gauge
edramd_disk_cache_entries gauge
edramd_disk_cache_invalidations gauge
edramd_disk_cache_live_bytes gauge
edramd_disk_cache_replayed_entries gauge
edramd_in_flight_requests gauge
edramd_jobs_active gauge
edramd_workers_capacity gauge
edramd_workers_in_use gauge
`

// seriesInventory reduces a text exposition to one line per sample:
// its series (name and label set, without the value) and the family
// type.
func seriesInventory(exposition string) string {
	kinds := map[string]string{}
	var b strings.Builder
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, _, _ := strings.Cut(series, "{")
		b.WriteString(series + " " + kinds[name] + "\n")
	}
	return b.String()
}

// TestMetricsInventory pins the series a fresh daemon exports, once
// memory-only and once with a CacheDir.
func TestMetricsInventory(t *testing.T) {
	for _, tc := range []struct {
		name, cacheDir, want string
	}{
		{"memory-only", "", inventoryMemory},
		{"cache-dir", t.TempDir(), inventoryCacheDir},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(Config{Workers: 2, CacheDir: tc.cacheDir})
			defer srv.Close()
			ts := httptest.NewServer(srv)
			defer ts.Close()
			status, body, _ := do(t, ts.Client(), "GET", ts.URL+"/metrics")
			if status != http.StatusOK {
				t.Fatalf("GET /metrics: status %d", status)
			}
			if got := seriesInventory(body); got != tc.want {
				t.Errorf("series inventory changed:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}
