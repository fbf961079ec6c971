package main

// Output checks. Each one recomputes a property from the response and
// the request alone, or compares against a computation made apart from
// the serving path (a fresh cold build, or the unpruned
// Explore → Feasible → Pareto oracle). None compares against a stored
// copy of earlier output. They run after the daemon life that produced
// the responses has drained, outside every timed window.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"edram/internal/core"
	"edram/internal/service"
)

// dominates is the benchmark's own Pareto order over (area, power,
// cost, −sustained): a is no worse anywhere and better somewhere.
func dominates(a, b *service.CandidateJSON) bool {
	if a.AreaMm2 > b.AreaMm2 || a.PowerMW > b.PowerMW || a.CostUSD > b.CostUSD || a.SustainedGBps < b.SustainedGBps {
		return false
	}
	return a.AreaMm2 < b.AreaMm2 || a.PowerMW < b.PowerMW || a.CostUSD < b.CostUSD || a.SustainedGBps > b.SustainedGBps
}

// meetsRequirements reports the first requirement c violates.
func meetsRequirements(req core.Requirements, c *service.CandidateJSON) error {
	switch {
	case !c.Feasible || len(c.Reasons) > 0:
		return fmt.Errorf("seq %d is marked infeasible (%v)", c.Seq, c.Reasons)
	case c.SustainedGBps < req.BandwidthGBps:
		return fmt.Errorf("seq %d sustains %g GB/s < floor %g", c.Seq, c.SustainedGBps, req.BandwidthGBps)
	case req.MaxAreaMm2 > 0 && c.AreaMm2 > req.MaxAreaMm2:
		return fmt.Errorf("seq %d area %g mm² > cap %g", c.Seq, c.AreaMm2, req.MaxAreaMm2)
	case req.MaxPowerMW > 0 && c.PowerMW > req.MaxPowerMW:
		return fmt.Errorf("seq %d power %g mW > cap %g", c.Seq, c.PowerMW, req.MaxPowerMW)
	case req.MinClockMHz > 0 && c.ClockMHz < req.MinClockMHz:
		return fmt.Errorf("seq %d clock %g MHz < floor %g", c.Seq, c.ClockMHz, req.MinClockMHz)
	case c.Spec.CapacityMbit*c.Macros != req.CapacityMbit:
		return fmt.Errorf("seq %d holds %d × %d Mbit, want %d Mbit", c.Seq, c.Macros, c.Spec.CapacityMbit, req.CapacityMbit)
	}
	return nil
}

// checkExplore checks one /v1/explore response against its request.
func checkExplore(req core.Requirements, body []byte) error {
	var resp service.ExploreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("explore: decoding: %w", err)
	}
	if !reflect.DeepEqual(resp.Request, req) {
		return fmt.Errorf("explore: response echoes %+v, sent %+v", resp.Request, req)
	}
	if !(0 <= resp.Infeasible && resp.Infeasible <= resp.Built && resp.Built <= resp.Points) {
		return fmt.Errorf("explore: counters out of order: points %d built %d infeasible %d", resp.Points, resp.Built, resp.Infeasible)
	}
	if want := resp.Built - resp.Infeasible - int64(len(resp.Frontier)); resp.Pruned != want {
		return fmt.Errorf("explore: pruned %d != built %d − infeasible %d − frontier %d", resp.Pruned, resp.Built, resp.Infeasible, len(resp.Frontier))
	}
	members := map[int]*service.CandidateJSON{}
	for i := range resp.Frontier {
		c := &resp.Frontier[i]
		if err := meetsRequirements(req, c); err != nil {
			return fmt.Errorf("explore: frontier: %w", err)
		}
		members[c.Seq] = c
		for j := range resp.Frontier {
			if i != j && dominates(&resp.Frontier[j], c) {
				return fmt.Errorf("explore: frontier seq %d dominates seq %d", resp.Frontier[j].Seq, c.Seq)
			}
		}
	}
	if len(members) != len(resp.Frontier) {
		return fmt.Errorf("explore: frontier repeats a seq")
	}
	roles := map[string]bool{}
	for _, p := range resp.Picks {
		m, ok := members[p.Seq]
		if !ok || !reflect.DeepEqual(*m, p.CandidateJSON) {
			return fmt.Errorf("explore: recommendation %s (seq %d) is not a frontier member", p.Role, p.Seq)
		}
		if roles[p.Role] {
			return fmt.Errorf("explore: role %s picked twice", p.Role)
		}
		roles[p.Role] = true
	}
	if (len(resp.Picks) == 0) != (len(resp.Frontier) == 0) {
		return fmt.Errorf("explore: %d recommendations from a %d-member frontier", len(resp.Picks), len(resp.Frontier))
	}
	return nil
}

// checkRecommend checks one /v1/recommend response against its request.
func checkRecommend(req core.Requirements, body []byte) error {
	var resp service.RecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("recommend: decoding: %w", err)
	}
	if !reflect.DeepEqual(resp.Request, req) {
		return fmt.Errorf("recommend: response echoes %+v, sent %+v", resp.Request, req)
	}
	if len(resp.Picks) == 0 {
		return fmt.Errorf("recommend: no recommendation")
	}
	for i := range resp.Picks {
		if err := meetsRequirements(req, &resp.Picks[i].CandidateJSON); err != nil {
			return fmt.Errorf("recommend: %s: %w", resp.Picks[i].Role, err)
		}
		for j := range resp.Picks {
			if dominates(&resp.Picks[j].CandidateJSON, &resp.Picks[i].CandidateJSON) {
				return fmt.Errorf("recommend: %s dominates %s", resp.Picks[j].Role, resp.Picks[i].Role)
			}
		}
	}
	return nil
}

// relClose compares two floats that the same arithmetic may reach in a
// different order.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkSimulate checks one /v1/simulate response: the requests and bits
// each client asked for were served, the bandwidth is the bits over the
// duration, and the latency percentiles are ordered.
func checkSimulate(req service.SimulateRequest, body []byte) error {
	var resp service.SimulateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("simulate: decoding: %w", err)
	}
	if len(resp.Clients) != len(req.Clients) {
		return fmt.Errorf("simulate: %d client results for %d clients", len(resp.Clients), len(req.Clients))
	}
	var bits int64
	for i, cr := range resp.Clients {
		c := req.Clients[i]
		width := c.Bits
		if width == 0 {
			width = req.Spec.InterfaceBits
		}
		switch {
		case cr.Name != c.Name:
			return fmt.Errorf("simulate: client %d is %q, sent %q", i, cr.Name, c.Name)
		case cr.Requests != c.Count:
			return fmt.Errorf("simulate: client %s served %d requests, asked %d", c.Name, cr.Requests, c.Count)
		case cr.BitsMoved != int64(cr.Requests)*int64(width):
			return fmt.Errorf("simulate: client %s moved %d bits, want %d × %d", c.Name, cr.BitsMoved, cr.Requests, width)
		case !(0 <= cr.P50Ns && cr.P50Ns <= cr.P95Ns && cr.P95Ns <= cr.P99Ns && cr.P99Ns <= cr.MaxNs && cr.MeanNs <= cr.MaxNs):
			return fmt.Errorf("simulate: client %s latencies out of order: p50 %g p95 %g p99 %g max %g mean %g", c.Name, cr.P50Ns, cr.P95Ns, cr.P99Ns, cr.MaxNs, cr.MeanNs)
		}
		bits += cr.BitsMoved
	}
	if resp.DurationNs <= 0 {
		return fmt.Errorf("simulate: duration %g ns", resp.DurationNs)
	}
	if got := float64(bits) / 8 / resp.DurationNs; !relClose(got, resp.SustainedGBps) {
		return fmt.Errorf("simulate: %d bits over %g ns is %g GB/s, response says %g", bits, resp.DurationNs, got, resp.SustainedGBps)
	}
	if resp.SustainedGBps > resp.PeakGBps*(1+1e-9) {
		return fmt.Errorf("simulate: sustained %g GB/s exceeds peak %g", resp.SustainedGBps, resp.PeakGBps)
	}
	return nil
}

// checkReply dispatches on the request's endpoint.
func checkReply(r Request, body []byte) error {
	switch r.Path {
	case "/v1/simulate":
		var req service.SimulateRequest
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return err
		}
		return checkSimulate(req, body)
	case "/v1/recommend":
		var req core.Requirements
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return err
		}
		return checkRecommend(req, body)
	default:
		var req core.Requirements
		if err := json.Unmarshal(r.Body, &req); err != nil {
			return err
		}
		return checkExplore(req, body)
	}
}

// oracleFront is the unpruned reference: every buildable point, the
// feasible subset and its Pareto front, keyed by seq.
func oracleFront(req core.Requirements) (all []core.Candidate, front map[int]core.Candidate, err error) {
	all, err = core.Explore(req)
	if err != nil {
		return nil, nil, err
	}
	front = map[int]core.Candidate{}
	for _, c := range core.Pareto(core.Feasible(all)) {
		front[c.Seq] = c
	}
	return all, front, nil
}

// sameMetrics compares a served candidate with the oracle's bit for
// bit: every serving path must reproduce the cold sweep's floats.
func sameMetrics(c *service.CandidateJSON, o core.Candidate) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	return same(c.AreaMm2, o.AreaMm2) && same(c.PowerMW, o.PowerMW) && same(c.CostUSD, o.CostUSD) && same(c.SustainedGBps, o.SustainedGBps)
}

// oracleExplore compares a served explore body with a fresh cold build
// (byte for byte) and its frontier and counters with the unpruned
// oracle.
func oracleExplore(ctx context.Context, req core.Requirements, body []byte) error {
	fresh, err := service.BuildExplore(ctx, req, 2, nil)
	if err != nil {
		return fmt.Errorf("oracle: cold build: %w", err)
	}
	b, err := service.Encode(fresh)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, body) {
		return fmt.Errorf("oracle: served body (%d B) differs from a fresh cold build (%d B)", len(body), len(b))
	}
	var resp service.ExploreResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	all, front, err := oracleFront(req)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	infeasible := int64(len(all) - len(core.Feasible(all)))
	if resp.Built != int64(len(all)) || resp.Infeasible != infeasible {
		return fmt.Errorf("oracle: built %d infeasible %d, unpruned sweep has %d and %d", resp.Built, resp.Infeasible, len(all), infeasible)
	}
	if len(resp.Frontier) != len(front) {
		return fmt.Errorf("oracle: frontier has %d members, unpruned Pareto has %d", len(resp.Frontier), len(front))
	}
	for i := range resp.Frontier {
		c := &resp.Frontier[i]
		if o, ok := front[c.Seq]; !ok || !sameMetrics(c, o) {
			return fmt.Errorf("oracle: frontier seq %d is not on the unpruned Pareto front", c.Seq)
		}
	}
	return nil
}

// oracleRecommend checks every pick lies on the unpruned Pareto front.
func oracleRecommend(req core.Requirements, body []byte) error {
	var resp service.RecommendResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	_, front, err := oracleFront(req)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	for i := range resp.Picks {
		p := &resp.Picks[i]
		if o, ok := front[p.Seq]; !ok || !sameMetrics(&p.CandidateJSON, o) {
			return fmt.Errorf("oracle: %s pick seq %d is not on the unpruned Pareto front", p.Role, p.Seq)
		}
	}
	return nil
}

// oracleSample picks, from the seed, up to perTag replies of every
// X-Cache tag of explore and recommend requests for the oracle checks.
func oracleSample(seed int64, seqs [numClients][]Request, replies [numClients][]reply, perTag int) [][2]int {
	rng := rand.New(rand.NewSource(seed ^ 0x6f7261636c65))
	byClass := map[string][][2]int{}
	var classes []string
	for c := range seqs {
		for i, r := range seqs[c] {
			if r.Path == "/v1/simulate" {
				continue
			}
			class := r.Path + " " + replies[c][i].Tag
			if _, ok := byClass[class]; !ok {
				classes = append(classes, class)
			}
			byClass[class] = append(byClass[class], [2]int{c, i})
		}
	}
	var out [][2]int
	for _, class := range classes {
		idx := byClass[class]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		if len(idx) > perTag {
			idx = idx[:perTag]
		}
		out = append(out, idx...)
	}
	return out
}

// runOracle runs the oracle check of one sampled reply.
func runOracle(ctx context.Context, r Request, body []byte) error {
	var req core.Requirements
	if err := json.Unmarshal(r.Body, &req); err != nil {
		return err
	}
	if r.Path == "/v1/recommend" {
		return oracleRecommend(req, body)
	}
	return oracleExplore(ctx, req, body)
}
