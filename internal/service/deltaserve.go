// The delta-aware cache tier. Between the byte-exact result cache
// (identical request → identical bytes) and a cold sweep sits the warm
// "tweak one constraint" pattern: a request whose canonical key misses
// the result cache but whose requirement *structure* matches a sweep the
// daemon already ran. For those, a retained core.DeltaState re-serves
// the response from the prior run's evaluations (sweeping only newly
// exposed intervals), byte-identical to the cold computation — surfaced
// as X-Cache: hit-delta and the edramd_delta_* metrics.

package service

import (
	"context"
	"sync"

	"edram/internal/core"
)

// maxDeltaStates bounds the retained-state index. Each state holds a
// dense store over its whole design space: power and a built bit per
// point plus 32 B per page-independent projection, about 19 B per
// point (43 KiB for a one-process 16-Mbit space of 2304 points), so
// the bound is a memory cap, not a hit-rate tuning knob.
const maxDeltaStates = 8

// deltaEntry wraps one retained state with the mutex that serializes
// DeltaExplore calls against it (the state mutates as coverage grows).
type deltaEntry struct {
	mu    sync.Mutex
	state *core.DeltaState
}

// deltaIndex is a small LRU of retained delta states keyed by
// structural key.
type deltaIndex struct {
	mu      sync.Mutex
	entries map[string]*deltaEntry
	order   []string // LRU, most recently used last
}

func newDeltaIndex() *deltaIndex {
	return &deltaIndex{entries: map[string]*deltaEntry{}}
}

func (ix *deltaIndex) touch(key string) {
	for i, k := range ix.order {
		if k == key {
			ix.order = append(append(ix.order[:i:i], ix.order[i+1:]...), key)
			return
		}
	}
	ix.order = append(ix.order, key)
}

// lookup returns the entry able to serve req via delta re-exploration,
// or nil.
func (ix *deltaIndex) lookup(req core.Requirements) *deltaEntry {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	e, ok := ix.entries[req.StructuralKey()]
	if !ok || !e.state.Eligible(req) {
		return nil
	}
	ix.touch(req.StructuralKey())
	return e
}

// store indexes a sealed state, evicting the least recently used entry
// past the bound. A state for an already-present structural key
// replaces the old one (the newcomer's coverage is at least as fresh).
func (ix *deltaIndex) store(st *core.DeltaState) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	key := st.StructuralKey()
	ix.entries[key] = &deltaEntry{state: st}
	ix.touch(key)
	for len(ix.entries) > maxDeltaStates {
		old := ix.order[0]
		ix.order = ix.order[1:]
		delete(ix.entries, old)
	}
}

// buildExploreRecorded is the cold local explore path that feeds the
// delta tier: the pruned sweep BuildExplore runs, recording every built
// evaluation, and on success the sealed state enters the index so
// later same-structure requests can be served incrementally.
func (s *Server) buildExploreRecorded(ctx context.Context, req core.Requirements, workers int) (*ExploreResponse, error) {
	st, err := core.NewDeltaState(req)
	if err != nil {
		return nil, err
	}
	res, err := st.Record(ctx, core.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	resp, err := exploreResponseFromMerged(req, res)
	if err == nil {
		s.deltaStates.store(st)
	}
	return resp, err
}

// deltaLookup returns the retained state able to serve req, counting a
// delta-tier miss when there is none.
func (s *Server) deltaLookup(req core.Requirements) *deltaEntry {
	e := s.deltaStates.lookup(req)
	if e == nil {
		s.tierDeltaMisses.Inc()
	}
	return e
}

// serveExploreDelta serves req from a retained state, folding the
// swept/reused accounting into the delta metrics.
func (s *Server) serveExploreDelta(ctx context.Context, e *deltaEntry, req core.Requirements, workers int) (*ExploreResponse, error) {
	e.mu.Lock()
	resp, res, err := BuildExploreDelta(ctx, e.state, req, workers)
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s.tierDeltaHits.Inc()
	s.deltaSwept.Add(res.Swept)
	s.deltaReused.Add(res.Reused)
	return resp, nil
}
