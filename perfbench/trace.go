package main

// The traced run. Its HTTP loop is the untraced one; each reply's
// round trip becomes a root span tagged with X-Cache. After each daemon
// life of the first timed cycle drains, a single goroutine replays
// every request of that life through the public functions of each
// layer, in the order their round trips started and with its own LRU,
// disk tier and delta states, so each call lands on the tier the daemon
// reported. Each call becomes a child span of its request's round trip.
// Spans stay in memory and are written out as JSON lines when the run
// ends.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"edram/internal/core"
	"edram/internal/diskcache"
	"edram/internal/edram"
	"edram/internal/mapping"
	"edram/internal/scenario"
	"edram/internal/sched"
	"edram/internal/service"
)

// span is one timed interval. Spans of one request share Req; a layer
// call's Parent is its request's round-trip span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds the spans and the per-layer samples of a traced run.
type tracer struct {
	t0       time.Time
	spans    []span
	samples  map[string][]float64
	served   map[string]int // X-Cache tags of one cycle
	simReqs  int64          // simulated memory requests replayed
	simTime  time.Duration  // time inside sched.RunWithOptions
	mismatch int            // replays that reached another tier than the daemon
	reqID    int64
}

func newTracer(served map[string]int) *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, served: served}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(name, tag string, parent, req int64, start, end time.Time) int64 {
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Tag: tag, Start: t.ns(start), End: t.ns(end)})
	return id
}

func (t *tracer) sample(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// call times fn as a child span of root and returns its duration.
func (t *tracer) call(name string, root, req int64, fn func()) time.Duration {
	s := time.Now()
	fn()
	e := time.Now()
	t.add(name, "", root, req, s, e)
	return e.Sub(s)
}

// callUS is call that also samples the duration as name_us.
func (t *tracer) callUS(name string, root, req int64, fn func()) time.Duration {
	d := t.call(name, root, req, fn)
	t.sample(name+"_us", us(d))
	return d
}

// strictDecode decodes a request body the way the daemon does:
// unknown fields and trailing data are errors.
func strictDecode(b []byte, v any) error {
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

// deltaStates mirrors the daemon's 8-entry LRU of retained sweeps.
type deltaStates struct {
	states map[string]*core.DeltaState
	order  []string
}

func (d *deltaStates) lookup(req core.Requirements) *core.DeltaState {
	st := d.states[req.StructuralKey()]
	if st == nil || !st.Eligible(req) {
		return nil
	}
	d.touch(st.StructuralKey())
	return st
}

func (d *deltaStates) touch(key string) {
	for i, k := range d.order {
		if k == key {
			d.order = append(d.order[:i:i], d.order[i+1:]...)
			break
		}
	}
	d.order = append(d.order, key)
}

func (d *deltaStates) store(st *core.DeltaState) {
	d.states[st.StructuralKey()] = st
	d.touch(st.StructuralKey())
	for len(d.order) > 8 {
		delete(d.states, d.order[0])
		d.order = d.order[1:]
	}
}

// replayer is the layer state of one replayed daemon life.
type replayer struct {
	t       *tracer
	workers int
	lru     *service.ResultCache
	disk    *diskcache.Cache
	deltas  *deltaStates
}

// replay replays one traced daemon life. check holds the verified
// bodies of the check cycle, which every later cycle reproduces byte
// for byte.
func (t *tracer) replay(ctx context.Context, tmp, segment string, p *Plan, check, r *life, workers int) error {
	dir, err := os.MkdirTemp(tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyFile(filepath.Join(dir, segmentName), segment); err != nil {
		return err
	}
	s := time.Now()
	disk, err := diskcache.Open(dir, diskcache.Options{Generation: service.CacheGeneration()})
	e := time.Now()
	if err != nil {
		return fmt.Errorf("replay: disk tier: %w", err)
	}
	defer disk.Close()
	t.add("diskcache.replay", "", 0, 0, s, e)
	t.sample("diskcache.replay_ms", ms(e.Sub(s)))
	rp := &replayer{t: t, workers: workers, lru: service.NewResultCache(256, 15*time.Minute), disk: disk,
		deltas: &deltaStates{states: map[string]*core.DeltaState{}}}
	for _, w := range p.Warmup {
		if err := rp.warm(ctx, w); err != nil {
			return err
		}
	}
	// The daemon served the clients' requests interleaved; replay them
	// in the order their round trips started.
	var order [][2]int
	for c := range p.Clients {
		for i := range p.Clients[c] {
			order = append(order, [2]int{c, i})
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return r.Replies[order[a][0]][order[a][1]].Start.Before(r.Replies[order[b][0]][order[b][1]].Start)
	})
	for _, ci := range order {
		c, i := ci[0], ci[1]
		req, rep := p.Clients[c][i], r.Replies[c][i]
		t.reqID++
		root := t.add("service.roundtrip", rep.Tag, 0, t.reqID, rep.Start, rep.Start.Add(rep.Dur))
		t.sample("service.roundtrip_ms."+rep.Tag, ms(rep.Dur))
		t.sample("service.response_kib", float64(rep.Size)/1024)
		tag, busy, err := rp.request(ctx, req, check.Replies[c][i].Body, root, t.reqID)
		if err != nil {
			return fmt.Errorf("replay %s: %w", req.Path, err)
		}
		if tag != rep.Tag {
			t.mismatch++
			continue
		}
		t.sample("service.unexplained_ms", ms(rep.Dur-busy))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// warm mirrors Server.Warmup: a recorded sweep whose bytes fill every
// tier and whose state enters the delta index. It is not timed.
func (rp *replayer) warm(ctx context.Context, req core.Requirements) error {
	st, err := core.NewDeltaState(req)
	if err != nil {
		return err
	}
	resp, err := service.BuildExplore(ctx, req, rp.workers, nil, core.WithObserver(st.Observe))
	if err != nil {
		return err
	}
	st.Seal()
	rp.deltas.store(st)
	b, err := service.Encode(resp)
	if err != nil {
		return err
	}
	key := service.HashKey("explore", req.CanonicalKey())
	rp.lru.Put(key, b)
	rp.disk.Put(key, b)
	return nil
}

// request replays one request through the layers the daemon's handler
// calls and returns the tier it reached and the summed layer time.
// body is the verified reply; decoding it is not timed.
func (rp *replayer) request(ctx context.Context, r Request, body []byte, root, id int64) (string, time.Duration, error) {
	t := rp.t
	endpoint := r.Path[len("/v1/"):]
	var (
		busy   time.Duration
		err    error
		key    string
		req    core.Requirements
		sim    service.SimulateRequest
		served any // the reply's value, re-encoded where the daemon encodes
	)
	if endpoint == "simulate" {
		busy += t.callUS("service.decode", root, id, func() { err = strictDecode(r.Body, &sim) })
		// The simulate key's client part is unexported: the span times
		// the spec's canonical key and the hash, and the lookups use the
		// key the daemon wrote into the reply.
		busy += t.callUS("service.key", root, id, func() { service.HashKey(endpoint, sim.Spec.CanonicalKey()) })
		resp := &service.SimulateResponse{}
		if err == nil {
			err = json.Unmarshal(body, resp)
		}
		key, served = resp.Key, resp
	} else {
		var rr service.RequirementsRequest
		busy += t.callUS("service.decode", root, id, func() { err = strictDecode(r.Body, &rr) })
		req = rr.Requirements
		busy += t.callUS("service.key", root, id, func() { key = service.HashKey(endpoint, req.CanonicalKey()) })
		served = &service.RecommendResponse{}
		if endpoint == "explore" {
			served = &service.ExploreResponse{}
		}
		if err == nil {
			err = json.Unmarshal(body, served)
		}
	}
	if err != nil {
		return "", 0, err
	}

	var hit bool
	busy += t.callUS("service.lru_get", root, id, func() { _, hit = rp.lru.Get(key) })
	if hit {
		return "hit", busy, nil
	}
	var val []byte
	busy += t.callUS("diskcache.get", root, id, func() { val, hit = rp.disk.Get(key) })
	if hit {
		rp.lru.Put(key, val)
		return "hit-disk", busy, nil
	}

	tag := "miss"
	var d time.Duration
	switch endpoint {
	case "simulate":
		d, err = rp.simulate(sim, root, id)
	case "recommend":
		d = t.call("core.recommend", root, id, func() {
			_, err = core.RecommendContext(ctx, req, core.WithWorkers(rp.workers))
		})
		t.sample("core.recommend_ms", ms(d))
	default:
		if st := rp.deltas.lookup(req); st != nil {
			tag = "hit-delta"
			d, err = rp.delta(ctx, st, req, root, id)
		} else {
			d, err = rp.sweep(ctx, req, root, id)
		}
	}
	if err != nil {
		return "", 0, err
	}
	busy += d
	var b []byte
	busy += t.callUS("service.encode", root, id, func() { b, err = service.Encode(served) })
	if err != nil {
		return "", 0, err
	}
	rp.lru.Put(key, b)
	busy += t.callUS("diskcache.put", root, id, func() { rp.disk.Put(key, b) })
	return tag, busy, nil
}

// sweep is the daemon's cold recorded explore: the pruned sweep drained
// into a frontier, quantized, and its delta state sealed and indexed.
func (rp *replayer) sweep(ctx context.Context, req core.Requirements, root, id int64) (time.Duration, error) {
	t := rp.t
	st, err := core.NewDeltaState(req)
	if err != nil {
		return 0, err
	}
	var final core.ExploreStats
	front := core.NewFrontier()
	var add time.Duration
	a0 := mallocs()
	s := time.Now()
	ch, err := core.ExploreContext(ctx, req, core.WithWorkers(rp.workers), core.WithPruning(),
		core.WithObserver(st.Observe),
		core.WithProgress(func(s core.ExploreStats) {
			if s.Done {
				final = s
			}
		}))
	if err != nil {
		return 0, err
	}
	for c := range ch {
		as := time.Now()
		front.Add(c)
		add += time.Since(as)
	}
	e := time.Now()
	allocs := mallocs() - a0
	if !final.Done {
		return 0, fmt.Errorf("sweep did not finish: %v", ctx.Err())
	}
	t.add("core.sweep", "", root, id, s, e)
	sweep := e.Sub(s)
	t.sample("core.sweep_ms", ms(sweep))
	t.sample("core.points_per_ms", float64(final.Enumerated)/ms(sweep))
	t.sample("core.points_built", float64(final.Built))
	t.sample("core.points_skipped", float64(final.Skipped))
	t.sample("core.sweep_allocs", float64(allocs))
	t.sample("core.frontier_add_us", us(add))
	cands := front.Candidates()
	busy := sweep + t.callUS("core.quantize", root, id, func() { core.Quantize(cands) })
	busy += t.callUS("core.seal", root, id, st.Seal)
	rp.deltas.store(st)
	return busy, nil
}

// delta is the daemon's delta-tier re-exploration.
func (rp *replayer) delta(ctx context.Context, st *core.DeltaState, req core.Requirements, root, id int64) (time.Duration, error) {
	t := rp.t
	var res *core.DeltaResult
	var err error
	a0 := mallocs()
	d := t.call("core.delta", root, id, func() { res, err = core.DeltaExplore(ctx, st, req, rp.workers) })
	allocs := mallocs() - a0
	if err != nil {
		return 0, err
	}
	t.sample("core.delta_ms", ms(d))
	t.sample("core.delta_allocs", float64(allocs))
	t.sample("core.delta_swept", float64(res.Swept))
	t.sample("core.delta_reused", float64(res.Reused))
	return d, nil
}

// simulate is /v1/simulate's compute: build the macro, then run the
// event-driven controller over the clients' streams.
func (rp *replayer) simulate(req service.SimulateRequest, root, id int64) (time.Duration, error) {
	t := rp.t
	var m *edram.Macro
	var err error
	busy := t.callUS("edram.build", root, id, func() { m, err = edram.Build(req.Spec) })
	if err != nil {
		return 0, err
	}
	policy, err := scenario.ParsePolicy(req.Options.Policy)
	if err != nil {
		return 0, err
	}
	clients := make([]sched.Client, len(req.Clients))
	var n int64
	for i, c := range req.Clients {
		clients[i] = sched.Client{Name: c.Name, Gen: c.Generator(i, m.Geometry.InterfaceBits), LatencyBudgetNs: c.LatencyBudgetNs}
		n += int64(c.Count)
	}
	cfg := m.DeviceConfig()
	mp, err := mapping.NewBankInterleaved(mapping.Geometry{Banks: cfg.Banks, RowsBank: cfg.RowsPerBank, PageBytes: cfg.PageBits / 8})
	if err != nil {
		return 0, err
	}
	opt := sched.Options{Policy: policy, ClosedPage: req.Options.ClosedPage, ReorderWindow: req.Options.ReorderWindow}
	a0 := mallocs()
	d := t.call("sched.run", root, id, func() { _, err = sched.RunWithOptions(cfg, mp, opt, clients) })
	allocs := mallocs() - a0
	if err != nil {
		return 0, err
	}
	t.sample("sched.run_ms", ms(d))
	t.sample("sched.run_allocs", float64(allocs))
	t.simReqs += n
	t.simTime += d
	return busy + d, nil
}

// perLayer lists every per-layer metric with its unit and how it is
// folded from the samples. A layer the workload never reaches has no
// samples and reads 0.
var perLayer = []struct {
	name, unit string
	fold       func([]float64) float64
}{
	{"service.roundtrip_ms.miss", "ms", median},
	{"service.roundtrip_ms.hit", "ms", median},
	{"service.roundtrip_ms.hit-disk", "ms", median},
	{"service.roundtrip_ms.hit-delta", "ms", median},
	{"service.unexplained_ms", "ms", median},
	{"service.decode_us", "us", median},
	{"service.key_us", "us", median},
	{"service.lru_get_us", "us", median},
	{"service.encode_us", "us", median},
	{"service.response_kib", "KiB", mean},
	{"diskcache.replay_ms", "ms", median},
	{"diskcache.get_us", "us", median},
	{"diskcache.put_us", "us", median},
	{"core.sweep_ms", "ms", median},
	{"core.points_per_ms", "1/ms", median},
	{"core.points_built", "count", mean},
	{"core.points_skipped", "count", mean},
	{"core.sweep_allocs", "count", median},
	{"core.frontier_add_us", "us", median},
	{"core.quantize_us", "us", median},
	{"core.seal_us", "us", median},
	{"core.delta_ms", "ms", median},
	{"core.delta_allocs", "count", median},
	{"core.delta_swept", "count", mean},
	{"core.delta_reused", "count", mean},
	{"core.recommend_ms", "ms", median},
	{"edram.build_us", "us", median},
	{"sched.run_ms", "ms", median},
	{"sched.run_allocs", "count", median},
}

// servedTags are the X-Cache values counted per cycle.
var servedTags = []string{"hit", "hit-disk", "hit-delta", "miss"}

// metrics folds the samples into the per-layer figures.
func (t *tracer) metrics(diskLiveMiB []float64) map[string]metric {
	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.name] = metric{l.fold(t.samples[l.name]), l.unit}
	}
	for _, tag := range servedTags {
		out["service.served."+tag] = metric{float64(t.served[tag]), "count"}
	}
	out["diskcache.live_mib"] = metric{median(diskLiveMiB), "MiB"}
	mreq := 0.0
	if t.simTime > 0 {
		mreq = float64(t.simReqs) / t.simTime.Seconds() / 1e6
	}
	out["sched.mreq_per_s"] = metric{mreq, "Mreq/s"}
	return out
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
