// The sharded explore path: a coordinator partitions the sweep's
// absolute-Seq range across the local pool and remote edramd peers
// (POST /v1/internal/shard carrying a shard/v1 sub-request), then
// merges the partial Pareto frontiers into a response byte-identical
// to the single-process sweep. Exactness rests on two invariants the
// parity tests pin: Seq-disjoint partitions reproduce the full
// enumeration, and the merged front plus the summed counters satisfy
// Pruned = Built − Infeasible − len(Frontier) — the same identity the
// undivided collector maintains.

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"edram/internal/core"
	"edram/internal/shard"
)

// ShardRequest is the POST /v1/internal/shard body: one contiguous
// absolute-Seq slice [From, To) of an explore sweep. Coordinators send
// it to peers; the response is cacheable under its shard/v1 key like
// any other canonical-keyed result.
type ShardRequest struct {
	// SchemaVersion optionally pins the wire version.
	//cachekey:exempt version pin validated to the one supported value; cannot change the result
	SchemaVersion int               `json:"schema_version,omitempty"`
	Explore       core.Requirements `json:"explore"`
	From          int               `json:"from"`
	To            int               `json:"to"`
}

// canonicalKey is the sub-request's cache identity: the parent
// explore's canonical key plus the partition bounds.
//
//cachekey:fields v1 Explore,From,To
func (r ShardRequest) canonicalKey() string {
	return fmt.Sprintf("shard/v1|%s|from=%d|to=%d", r.Explore.CanonicalKey(), r.From, r.To)
}

// ShardResponse is the partition result: the slice's exact enumeration
// counters plus its partition-local Pareto front.
type ShardResponse struct {
	SchemaVersion int             `json:"schema_version"`
	Key           string          `json:"key"`
	From          int             `json:"from"`
	To            int             `json:"to"`
	Enumerated    int64           `json:"enumerated"`
	Built         int64           `json:"built"`
	Infeasible    int64           `json:"infeasible"`
	Frontier      []CandidateJSON `json:"frontier"`
}

// handleShard serves one partition of a sweep. Unlike /v1/explore, an
// all-unbuildable partition is a valid (empty) result — only the
// merged whole insists on at least one buildable point. The compute is
// always a direct local ranged sweep: a peer serving a shard never
// fans out again, so loopback peer sets cannot recurse.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := checkSchemaVersion(req.SchemaVersion); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if v := req.Explore.Violations(); len(v) > 0 {
		writeError(w, http.StatusBadRequest, violationsError(v))
		return
	}
	if total := core.SweepCount(req.Explore); req.From < 0 || req.From >= req.To || req.To > total {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("shard range [%d,%d) outside sweep [0,%d)", req.From, req.To, total))
		return
	}
	key := HashKey("shard", req.canonicalKey())
	s.serveCached(w, r, "/v1/internal/shard", key, func(ctx context.Context) ([]byte, error) {
		workers, release, err := s.admitWorkers(ctx, "/v1/internal/shard", s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		defer release()
		resp, err := buildShard(ctx, req, workers)
		if err != nil {
			return nil, err
		}
		return Encode(resp)
	})
}

// buildShard runs the ranged sweep for one partition. The sweep is
// constraint-pruned like the undivided path; the folded Total*
// counters keep the wire response byte-identical to an unpruned
// partition (Seq numbering is absolute, so pruning never moves
// partition boundaries).
func buildShard(ctx context.Context, req ShardRequest, workers int) (*ShardResponse, error) {
	var final core.ExploreStats
	ch, err := core.ExploreContext(ctx, req.Explore,
		core.WithWorkers(workers),
		core.WithPruning(),
		core.WithSeqRange(req.From, req.To),
		core.WithProgress(func(cs core.ExploreStats) {
			if cs.Done {
				final = cs
			}
		}))
	if err != nil {
		return nil, err
	}
	front := core.NewFrontier()
	for c := range ch {
		front.Add(c)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	resp := &ShardResponse{
		SchemaVersion: SchemaVersion,
		Key:           HashKey("shard", req.canonicalKey()),
		From:          req.From,
		To:            req.To,
		Enumerated:    final.TotalPoints(),
		Built:         final.TotalBuilt(),
		Infeasible:    final.TotalInfeasible(),
		Frontier:      []CandidateJSON{},
	}
	for _, c := range front.Candidates() {
		resp.Frontier = append(resp.Frontier, candidateJSON(c))
	}
	return resp, nil
}

// shardResult converts a wire partition response into the merge form.
func shardResult(resp *ShardResponse) shard.Result {
	out := shard.Result{
		Enumerated: resp.Enumerated,
		Built:      resp.Built,
		Infeasible: resp.Infeasible,
		Frontier:   make([]core.Candidate, 0, len(resp.Frontier)),
	}
	for _, cj := range resp.Frontier {
		out.Frontier = append(out.Frontier, candidateFromJSON(cj))
	}
	return out
}

// localShardExec sweeps partitions in-process. A handler's executor
// carries the worker count the handler already admitted — executing a
// partition must not re-enter the admission gate the coordinator is
// holding. A job's executor sets acquire instead and draws its workers
// from the pool per partition, so a long job holds no workers between
// checkpoints.
type localShardExec struct {
	req     core.Requirements
	workers int
	acquire func(context.Context) (int, func(), error)
}

func (e *localShardExec) Kind() string { return shard.KindLocal }

func (e *localShardExec) Execute(ctx context.Context, p shard.Partition) (shard.Result, error) {
	workers := e.workers
	if e.acquire != nil {
		got, release, err := e.acquire(ctx)
		if err != nil {
			return shard.Result{}, err
		}
		defer release()
		workers = got
	}
	resp, err := buildShard(ctx, ShardRequest{Explore: e.req, From: p.From, To: p.To}, workers)
	if err != nil {
		return shard.Result{}, err
	}
	return shardResult(resp), nil
}

// remoteShardExec sweeps partitions on a peer edramd via
// POST /v1/internal/shard.
type remoteShardExec struct {
	client *http.Client
	base   string
	req    core.Requirements
}

func (e *remoteShardExec) Kind() string { return shard.KindRemote }

func (e *remoteShardExec) Execute(ctx context.Context, p shard.Partition) (shard.Result, error) {
	body, err := Encode(ShardRequest{SchemaVersion: SchemaVersion, Explore: e.req, From: p.From, To: p.To})
	if err != nil {
		return shard.Result{}, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+"/v1/internal/shard", bytes.NewReader(body))
	if err != nil {
		return shard.Result{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := e.client.Do(hreq)
	if err != nil {
		return shard.Result{}, err
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return shard.Result{}, fmt.Errorf("peer %s: reading shard response: %w", e.base, err)
	}
	if hresp.StatusCode != http.StatusOK {
		return shard.Result{}, fmt.Errorf("peer %s: shard [%d,%d) returned %d: %s",
			e.base, p.From, p.To, hresp.StatusCode, truncated(raw, 200))
	}
	var sr ShardResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		return shard.Result{}, fmt.Errorf("peer %s: decoding shard response: %w", e.base, err)
	}
	if sr.SchemaVersion != SchemaVersion || sr.From != p.From || sr.To != p.To {
		return shard.Result{}, fmt.Errorf("peer %s: shard response mismatch: schema %d range [%d,%d), want schema %d [%d,%d)",
			e.base, sr.SchemaVersion, sr.From, sr.To, SchemaVersion, p.From, p.To)
	}
	return shardResult(&sr), nil
}

func truncated(b []byte, n int) string {
	if len(b) > n {
		return string(b[:n]) + "..."
	}
	return string(b)
}

// shardingEnabled reports whether explore sweeps take the fan-out
// path: any peer list or an explicit local partition count turns it
// on.
func (s *Server) shardingEnabled() bool {
	return s.cfg.ShardParts > 0 || len(s.cfg.Peers) > 0
}

// shardPlanParts is the partition count: explicit, or two per executor
// so every lane stays busy and stragglers can be rebalanced.
func (s *Server) shardPlanParts() int {
	if s.cfg.ShardParts > 0 {
		return s.cfg.ShardParts
	}
	return 2 * (1 + len(s.cfg.Peers))
}

// shardExecutors builds the executor set for one explore: the local
// executor first (also the hedge target), then one lane per peer.
func (s *Server) shardExecutors(req core.Requirements, local *localShardExec) []shard.Executor {
	execs := []shard.Executor{local}
	for _, peer := range s.cfg.Peers {
		execs = append(execs, &remoteShardExec{client: s.shardClient, base: strings.TrimSuffix(peer, "/"), req: req})
	}
	return execs
}

// recordShardStats folds one fan-out's stats into the metrics.
func (s *Server) recordShardStats(st shard.Stats) {
	s.shardExplores.Inc()
	s.shardPartsLocal.Add(st.Local)
	s.shardPartsRemote.Add(st.Remote)
	s.shardRetries.Add(st.Retries)
	s.shardHedges.Add(st.Hedges)
	s.shardPeerFailures.Add(st.PeerFailures)
}

// buildExploreSharded is the fan-out form of BuildExplore: plan,
// execute across executors, merge, and rebuild the exact single-sweep
// response from the merged result.
func (s *Server) buildExploreSharded(ctx context.Context, req core.Requirements, workers int) (*ExploreResponse, error) {
	plan := shard.Plan(0, core.SweepCount(req), s.shardPlanParts())
	local := &localShardExec{req: req, workers: workers}
	out, stats, err := shard.Run(ctx, s.shardExecutors(req, local), plan, shard.Options{
		HedgeAfter: s.cfg.ShardHedgeAfter,
	})
	s.recordShardStats(stats)
	if err != nil {
		return nil, err
	}
	//nolint:edramvet/determinism // merge latency measurement is intentionally wall-clock
	start := time.Now()
	merged := shard.Merge(out)
	s.shardMergeSeconds.Observe(time.Since(start).Seconds())
	return exploreResponseFromMerged(req, merged)
}
