// The endpoint handlers. Each one decodes + validates up front
// (400 with every violation listed), then hands a compute closure to
// serveCached, which supplies the cache, the coalescing and the
// detached bounded context. Handlers that sweep the design space
// (explore, recommend, experiments) draw workers from the shared pool.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"edram/internal/core"
)

// strictUnmarshal decodes JSON rejecting unknown fields and trailing
// data — a typo in a field name is a 400, not a silently ignored knob.
func strictUnmarshal(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// violationsError joins a violation list into one 400 message.
func violationsError(v []string) error {
	return fmt.Errorf("invalid request: %s", strings.Join(v, "; "))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer signal, distinct from /healthz:
// the process can be alive (healthz 200) yet not ready to take
// traffic — still warming its cache or resuming jobs at startup, or
// draining in-flight requests at shutdown. Both of those answer 503
// here so rotation skips the instance without killing it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch s.readiness.Load() {
	case readyOK:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	case readyDraining:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.jobsStore != nil {
		s.jobsActive.Set(int64(s.jobsStore.Active()))
	}
	if s.cfg.CacheDir != "" {
		// Scrape-time sync, like the jobs gauge: the cache keeps its own
		// counters and the registry mirrors them on read.
		st := s.cache.Stats()
		s.metrics.Gauge("edramd_disk_cache_entries", "Live entries in the disk-logged result cache.").Set(int64(st.Entries))
		s.metrics.Gauge("edramd_disk_cache_live_bytes", "Live value bytes in the disk-logged result cache.").Set(st.LiveBytes)
		s.metrics.Gauge("edramd_disk_cache_replayed_entries", "Entries recovered from the segment log at boot.").Set(st.ReplayedEntries)
		s.metrics.Gauge("edramd_disk_cache_dropped_records", "Damaged log suffixes truncated at boot.").Set(st.DroppedRecords)
		s.metrics.Gauge("edramd_disk_cache_invalidations", "Whole-segment discards (generation mismatch).").Set(st.Invalidations)
		s.metrics.Gauge("edramd_disk_cache_compactions", "Segment log compactions.").Set(st.Compactions)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteProm(w)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var body RequirementsRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if err := checkSchemaVersion(body.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := body.Requirements
	if v := req.Violations(); len(v) > 0 {
		writeError(w, http.StatusBadRequest, violationsError(v))
		return
	}
	key := HashKey("explore", req.CanonicalKey())
	// The sync→async escape hatch: a sweep too large for the
	// request/response cycle is converted into a job (202 + job id)
	// unless the cache already holds the answer.
	if t := s.cfg.AsyncPointThreshold; t > 0 && core.SweepCount(req) > t {
		if val, ok := s.lookup(key); ok {
			w.Header().Set("X-Cache", "hit")
			writeBytes(w, val)
			return
		}
		s.submitJob(w, JobRequest{Kind: "explore", Explore: &req})
		return
	}
	s.serveCachedTagged(w, r, "/v1/explore", key, func(ctx context.Context) ([]byte, string, error) {
		return s.computeExplore(ctx, "/v1/explore", req)
	})
}

// computeExplore is the explore answer below the result cache, admitted
// under endpoint's budget. A byte-identity miss whose requirement
// structure matches a retained sweep is re-served by the delta tier
// (byte-identical to the cold computation) and tagged "hit-delta";
// anything else is a cold pruned sweep that records its delta state.
func (s *Server) computeExplore(ctx context.Context, endpoint string, req core.Requirements) ([]byte, string, error) {
	workers, release, err := s.admitWorkers(ctx, endpoint, s.cfg.Workers)
	if err != nil {
		return nil, "", err
	}
	defer release()
	var resp *ExploreResponse
	tag := ""
	if e := s.deltaLookup(req); e != nil {
		resp, err = s.serveExploreDelta(ctx, e, req, workers)
		tag = "hit-delta"
	} else {
		resp, err = s.buildExploreRecorded(ctx, req, workers)
	}
	if err != nil {
		return nil, "", err
	}
	b, err := Encode(resp)
	return b, tag, err
}

// handleRecommend serves the picks of the explore answer for the same
// requirements. Recommend keeps its own cache key; below it, the
// explore answer is read through the explore tiers (the result cache,
// delta, then a recorded pruned sweep that fills the cache), and only
// its recommendations array is decoded.
func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	var body RequirementsRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if err := checkSchemaVersion(body.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req := body.Requirements
	if v := req.Violations(); len(v) > 0 {
		writeError(w, http.StatusBadRequest, violationsError(v))
		return
	}
	key := HashKey("recommend", req.CanonicalKey())
	s.serveCached(w, r, "/v1/recommend", key, func(ctx context.Context) ([]byte, error) {
		var explore struct {
			Picks []RecommendationJSON `json:"recommendations"`
		}
		b, err := s.exploreAnswer(ctx, "/v1/recommend", req)
		switch {
		case err == nil:
			if err := json.Unmarshal(b, &explore); err != nil {
				return nil, err
			}
		case !errors.Is(err, errNoBuildable):
			return nil, err
		}
		workers := 0
		if len(explore.Picks) == 0 {
			// recommendResponse words the error with a full sweep.
			got, release, err := s.admitWorkers(ctx, "/v1/recommend", s.cfg.Workers)
			if err != nil {
				return nil, err
			}
			defer release()
			workers = got
		}
		resp, err := recommendResponse(ctx, req, explore.Picks, workers)
		if err != nil {
			return nil, err
		}
		return Encode(resp)
	})
}

// exploreAnswer returns req's encoded explore answer through the
// explore read path that POST /v1/explore takes: the result cache,
// coalescing onto an identical explore in flight, then computeExplore
// (the delta tier or a recorded pruned sweep), whose bytes fill the
// cache.
func (s *Server) exploreAnswer(ctx context.Context, endpoint string, req core.Requirements) ([]byte, error) {
	b, _, err := s.cached(ctx, endpoint, HashKey("explore", req.CanonicalKey()), func(ctx context.Context) ([]byte, string, error) {
		return s.computeExplore(ctx, endpoint, req)
	})
	return b, err
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if v := req.Violations(s.cfg.MaxSimRequests); len(v) > 0 {
		writeError(w, http.StatusBadRequest, violationsError(v))
		return
	}
	key := HashKey("simulate", req.canonicalKey())
	s.serveCached(w, r, "/v1/simulate", key, func(ctx context.Context) ([]byte, error) {
		// The event-driven simulation is single-threaded: one pool
		// slot, however many were asked for.
		_, release, err := s.admitWorkers(ctx, "/v1/simulate", 1)
		if err != nil {
			return nil, err
		}
		defer release()
		resp, err := BuildSimulate(req)
		if err != nil {
			return nil, err
		}
		return Encode(resp)
	})
}

func (s *Server) handleDatasheet(w http.ResponseWriter, r *http.Request) {
	var body DatasheetRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if err := checkSchemaVersion(body.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec := body.Spec
	key := HashKey("datasheet", spec.CanonicalKey())
	s.serveCached(w, r, "/v1/datasheet", key, func(ctx context.Context) ([]byte, error) {
		resp, err := BuildDatasheet(spec)
		if err != nil {
			return nil, err
		}
		return Encode(resp)
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var req ExperimentsRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := HashKey("experiments", req.canonicalKey())
	s.serveCached(w, r, "/v1/experiments", key, func(ctx context.Context) ([]byte, error) {
		workers, release, err := s.admitWorkers(ctx, "/v1/experiments", s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		defer release()
		resp, err := BuildExperiments(ctx, req, workers)
		if err != nil {
			return nil, err
		}
		return Encode(resp)
	})
}
