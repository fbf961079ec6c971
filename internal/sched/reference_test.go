package sched

// The reference controller: the drain-then-serve loop RunWithOptions
// used before it streamed its queues. It drains every generator into
// a slice up front and keeps a done flag per request; the parity test
// holds the streamed controller to its results bit for bit.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"edram/internal/dram"
	"edram/internal/mapping"
	"edram/internal/reliab"
	"edram/internal/traffic"
	"edram/internal/units"
)

// refState is one client of the reference controller: its whole
// stream, drained up front, with a done flag per request.
type refState struct {
	reqs    []traffic.Request
	next    int // first unserved request
	arrived int // requests with IssueNs <= now (>= next)
	done    []bool
	served  int
	lats    []float64
	maxFIFO int
	bits    int64
}

// head returns the client's oldest unserved, arrived request index.
// markServed keeps next at the first unserved request, so the head is
// a bounds check, not a scan — this sits in every policy's inner loop.
func (st *refState) head() (int, bool) {
	return st.next, st.next < st.arrived
}

// appendCandidates appends up to window unserved, arrived request
// indices in age order to out (typically a scratch slice reused across
// picks — the per-pick allocation here used to dominate the
// simulator's allocation profile).
func (st *refState) appendCandidates(out []int, window int) []int {
	n := 0
	for i := st.next; i < st.arrived && n < window; i++ {
		if !st.done[i] {
			out = append(out, i)
			n++
		}
	}
	return out
}

// markServed records completion of request idx and advances the head.
func (st *refState) markServed(idx int) {
	st.done[idx] = true
	st.served++
	for st.next < len(st.reqs) && st.done[st.next] {
		st.next++
	}
}

// referenceRun serves the clients like RunWithOptions, from streams
// drained before the first request is served.
func referenceRun(devCfg dram.Config, m mapping.Mapping, opt Options, clients []Client) (Result, error) {
	policy := opt.Policy
	if len(clients) == 0 {
		return Result{}, fmt.Errorf("sched: no clients")
	}
	dev, err := dram.New(devCfg)
	if err != nil {
		return Result{}, err
	}
	geo := m.Geometry()
	if geo.Banks != devCfg.Banks || geo.RowsBank != devCfg.RowsPerBank || geo.PageBytes != devCfg.PageBits/8 {
		return Result{}, fmt.Errorf("sched: mapping geometry %+v does not match device %+v", geo, devCfg)
	}

	var ladder *reliab.Ladder
	var degraded *mapping.Degraded
	if opt.Reliability != nil {
		degraded = mapping.NewDegraded(m)
		m = degraded
		ladder, err = reliab.NewLadder(*opt.Reliability, dev, degraded, opt.FaultObserver)
		if err != nil {
			return Result{}, fmt.Errorf("sched: reliability: %w", err)
		}
	}

	window := opt.ReorderWindow
	if window < 1 {
		window = 1
	}
	budgets := make([]float64, len(clients))
	for i, c := range clients {
		budgets[i] = c.LatencyBudgetNs
		if budgets[i] <= 0 {
			budgets[i] = 1e12 // best effort
		}
	}
	states := make([]refState, len(clients))
	total := 0
	for i, c := range clients {
		states[i].reqs = traffic.Slice(c.Gen)
		states[i].done = make([]bool, len(states[i].reqs))
		states[i].lats = make([]float64, 0, len(states[i].reqs))
		total += len(states[i].reqs)
	}
	if total == 0 {
		return Result{}, fmt.Errorf("sched: all client streams empty")
	}

	now := 0.0
	served := 0
	rrNext := 0
	// Scratch for the OpenPageFirst window scan, reused across picks.
	scratch := make([]int, 0, window)
	var trace []TraceEntry
	if opt.Trace {
		trace = make([]TraceEntry, 0, total)
	}
	beatsOf := func(bits int) int {
		n := units.CeilDiv(bits, devCfg.DataBits)
		if n < 1 {
			n = 1
		}
		return n
	}

	for served < total {
		// Advance arrivals; find the set of ready client heads.
		anyReady := false
		nextArrival := math.Inf(1)
		for i := range states {
			st := &states[i]
			for st.arrived < len(st.reqs) && st.reqs[st.arrived].IssueNs <= now+1e-9 {
				st.arrived++
			}
			if st.next < st.arrived {
				anyReady = true
			} else if st.next < len(st.reqs) && st.reqs[st.next].IssueNs < nextArrival {
				nextArrival = st.reqs[st.next].IssueNs
			}
			// FIFO occupancy: arrived but not yet served.
			if d := st.arrived - st.served; d > st.maxFIFO {
				st.maxFIFO = d
			}
		}
		if !anyReady {
			now = nextArrival
			continue
		}

		pick, reqIdx := refChoose(policy, states, rrNext, dev, m, window, budgets, scratch)
		if policy == RoundRobin {
			rrNext = (pick + 1) % len(states)
		}
		st := &states[pick]
		req := st.reqs[reqIdx]
		bank, row := m.Map(req.AddrB)
		res, err := dev.Burst(math.Max(now, req.IssueNs), bank, row, beatsOf(req.Bits), req.Write)
		if err != nil {
			return Result{}, fmt.Errorf("sched: serving client %q: %w", clients[pick].Name, err)
		}
		doneNs := res.DoneNs
		if ladder != nil {
			doneNs, err = ladder.AfterAccess(clients[pick].Name, bank, row, req.Write, beatsOf(req.Bits), res)
			if err != nil {
				return Result{}, fmt.Errorf("sched: serving client %q: %w", clients[pick].Name, err)
			}
		}
		st.lats = append(st.lats, doneNs-req.IssueNs)
		st.bits += int64(req.Bits)
		st.markServed(reqIdx)
		served++
		if opt.Trace || opt.Observer != nil {
			e := TraceEntry{
				Client: clients[pick].Name, AddrB: req.AddrB,
				Bank: bank, Row: row, Write: req.Write,
				IssueNs: req.IssueNs, StartNs: res.StartNs, DoneNs: doneNs,
				Hit: res.Hit,
			}
			if opt.Observer != nil {
				opt.Observer(e)
			}
			if opt.Trace {
				trace = append(trace, e)
			}
		}
		if opt.ClosedPage {
			if err := dev.Precharge(doneNs, bank); err != nil {
				return Result{}, err
			}
		}
		if res.StartNs > now {
			now = res.StartNs
		}
	}

	ds := dev.Stats()
	dur := ds.LastDoneNs
	var out Result
	out.Policy = policy
	out.MappingName = m.Name()
	out.PeakGBps = devCfg.PeakBandwidthGBps()
	out.Clients = make([]ClientResult, 0, len(states))
	var totalBits int64
	for i := range states {
		st := &states[i]
		cr := ClientResult{
			Name:      clients[i].Name,
			Stats:     traffic.Summarize(st.lats, st.maxFIFO),
			BitsMoved: st.bits,
		}
		if dur > 0 {
			cr.AchievedGBps = float64(st.bits) / 8 / dur
		}
		totalBits += st.bits
		out.Clients = append(out.Clients, cr)
	}
	if dur > 0 {
		out.SustainedGBps = float64(totalBits) / 8 / dur
	}
	out.SustainedFraction = units.Ratio(out.SustainedGBps, out.PeakGBps)
	out.HitRate = ds.HitRate()
	out.DurationNs = dur
	out.Device = ds
	out.Trace = trace
	if ladder != nil {
		rs := ladder.Stats()
		out.Reliability = &rs
		out.Offlined = degraded.Offlined()
	}
	return out, nil
}

// refChoose is choose over the reference controller's states.
func refChoose(policy Policy, states []refState, rrNext int, dev *dram.Device, m mapping.Mapping, window int, budgets []float64, scratch []int) (int, int) {
	n := len(states)
	head := func(i int) (int, bool) {
		return states[i].head()
	}

	switch policy {
	case RoundRobin:
		for k := 0; k < n; k++ {
			i := (rrNext + k) % n
			if idx, ok := head(i); ok {
				return i, idx
			}
		}
	case FixedPriority:
		for i := 0; i < n; i++ {
			if idx, ok := head(i); ok {
				return i, idx
			}
		}
	case OldestFirst:
		best, bestIdx, bestT := -1, 0, math.Inf(1)
		for i := 0; i < n; i++ {
			if idx, ok := head(i); ok && states[i].reqs[idx].IssueNs < bestT {
				best, bestIdx, bestT = i, idx, states[i].reqs[idx].IssueNs
			}
		}
		if best >= 0 {
			return best, bestIdx
		}
	case Deadline:
		best, bestIdx, bestT := -1, 0, math.Inf(1)
		for i := 0; i < n; i++ {
			if idx, ok := head(i); ok {
				dl := states[i].reqs[idx].IssueNs + budgets[i]
				if dl < bestT {
					best, bestIdx, bestT = i, idx, dl
				}
			}
		}
		if best >= 0 {
			return best, bestIdx
		}
	case OpenPageFirst:
		best, bestIdx, bestT := -1, 0, math.Inf(1)
		hitBest, hitIdx, hitT := -1, 0, math.Inf(1)
		for i := 0; i < n; i++ {
			scratch = states[i].appendCandidates(scratch[:0], window)
			for _, idx := range scratch {
				req := &states[i].reqs[idx]
				if idx == states[i].next && req.IssueNs < bestT {
					best, bestIdx, bestT = i, idx, req.IssueNs
				}
				bank, row := m.Map(req.AddrB)
				if dev.OpenRow(bank) == row && req.IssueNs < hitT {
					hitBest, hitIdx, hitT = i, idx, req.IssueNs
				}
			}
		}
		if hitBest >= 0 {
			return hitBest, hitIdx
		}
		if best >= 0 {
			return best, bestIdx
		}
	}
	// Fallback: first ready client (callers guarantee one exists).
	for i := 0; i < n; i++ {
		if idx, ok := head(i); ok {
			return i, idx
		}
	}
	return 0, 0
}

// parityClients is a seeded mix of every stream shape: reads beside
// writes, sizes of one to four beats, two clients in lockstep, rates from light to far past the
// device peak (so queues back up and the ring grows), deadline budgets,
// and one client whose stream is empty.
func parityClients(seed int64) []Client {
	rng := rand.New(rand.NewSource(seed))
	n := func(lo, hi int) int { return lo + rng.Intn(hi-lo+1) }
	rate := func() float64 { return float64(n(5, 300)) / 100 }
	bits := func() int { return 64 << rng.Intn(3) }
	// seq and stride issue in lockstep, so the arbiters break ties.
	lockBits, lockRate := bits(), rate()
	return []Client{
		{Name: "seq", LatencyBudgetNs: float64(n(100, 2000)), Gen: &traffic.Sequential{
			ClientID: 0, StartB: int64(n(0, 16)) * 64, LimitB: 1 << 20, Bits: lockBits,
			RateGB: lockRate, Count: n(100, 400)}},
		{Name: "stride", Gen: &traffic.Strided{
			ClientID: 1, StartB: 1 << 20, StrideB: 64 << rng.Intn(7), LimitB: 1 << 20,
			Bits: lockBits, Write: rng.Intn(2) == 0, RateGB: lockRate, Count: n(100, 400)}},
		{Name: "random", LatencyBudgetNs: float64(n(100, 2000)), Gen: &traffic.Random{
			ClientID: 2, StartB: 2 << 20, WindowB: 64 << 10 << rng.Intn(4), Bits: bits(),
			Write: rng.Intn(2) == 0, RateGB: rate(), Count: n(100, 400),
			Rng: rand.New(rand.NewSource(rng.Int63()))}},
		{Name: "empty", Gen: &traffic.Block2D{ClientID: 3, PitchB: 720, Lines: 576, BlockW: 16, BlockH: 16}},
		{Name: "alt", Gen: &traffic.Alternating{
			ClientID: 4, BaseA: 3 << 20, BaseB: 3<<20 + 1<<18, Bits: bits(), RateGB: rate(), Count: n(100, 400)}},
		{Name: "block", Gen: &traffic.Block2D{
			ClientID: 5, BaseB: 4 << 20, PitchB: 720, Lines: 576, BlockW: 16, BlockH: 8,
			RateGB: rate(), Blocks: n(10, 40), Rng: rand.New(rand.NewSource(rng.Int63()))}},
	}
}

// parityRun is one controller run with every output recorded: the
// result (with Trace) and the Observer and FaultObserver sequences.
type parityRun struct {
	Res    Result
	Err    string
	Events []TraceEntry
	Faults []reliab.FaultEvent
}

func runRecorded(run func(dram.Config, mapping.Mapping, Options, []Client) (Result, error),
	m mapping.Mapping, opt Options, clients []Client) parityRun {
	var out parityRun
	opt.Trace = true
	opt.Observer = func(e TraceEntry) { out.Events = append(out.Events, e) }
	if opt.Reliability != nil {
		opt.FaultObserver = func(ev reliab.FaultEvent) { out.Faults = append(out.Faults, ev) }
	}
	res, err := run(devCfg(), m, opt, clients)
	out.Res = res
	if err != nil {
		out.Err = err.Error()
	}
	return out
}

// TestStreamedMatchesReference holds the streamed controller to the
// drain-then-serve reference over every policy, page policy, reorder
// window and reliability setting: same served order, same Result
// (Trace, Offlined and reliability counters included), same observer
// event sequences.
func TestStreamedMatchesReference(t *testing.T) {
	policies := []Policy{RoundRobin, FixedPriority, OldestFirst, OpenPageFirst, Deadline}
	seed, deepest, faults, offlined := int64(0), 0, 0, 0
	for _, pol := range policies {
		for _, closed := range []bool{false, true} {
			for _, window := range []int{0, 2, 4, 8} {
				for _, faulty := range []bool{false, true} {
					seed++
					opt := Options{Policy: pol, ClosedPage: closed, ReorderWindow: window}
					if faulty {
						opt.Reliability = &reliab.Config{
							Seed: seed, ECC: reliab.ECCSECDED,
							MeanDefectsPerBank: 4, RetentionTailPerBank: 6,
							SoftErrorsPerMAccess: 5000, SpareRowsPerBank: 1,
							// More stuck rows than spares where seq
							// starts, so the ladder offlines pages.
							ExtraFaults: map[int][]dram.Fault{0: {
								{Kind: dram.WordlineStuck0, Row: 0},
								{Kind: dram.WordlineStuck0, Row: 1},
								{Kind: dram.WordlineStuck0, Row: 2},
							}},
						}
					}
					name := fmt.Sprintf("%s/closed=%t/window=%d/faults=%t", pol, closed, window, faulty)
					m := interleaved(t)
					if seed%3 == 0 {
						m = linear(t)
					}
					want := runRecorded(referenceRun, m, opt, parityClients(seed))
					got := runRecorded(RunWithOptions, m, opt, parityClients(seed))
					if want.Err != "" {
						t.Fatalf("%s: reference run failed: %s", name, want.Err)
					}
					if len(want.Events) == 0 {
						t.Fatalf("%s: the reference run served nothing", name)
					}
					faults += len(want.Faults)
					offlined += len(want.Res.Offlined)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: streamed controller differs from the reference (%d vs %d served, %d vs %d faults)",
							name, len(got.Events), len(want.Events), len(got.Faults), len(want.Faults))
					}
					for _, c := range want.Res.Clients {
						deepest = max(deepest, c.Stats.MaxFIFODepth)
					}
				}
			}
		}
	}
	// Some queue must outgrow the first ring, and some faulty run must
	// take pages offline, so the doubling path and the ladder's last
	// rung are compared too.
	if deepest <= minQueue {
		t.Errorf("deepest FIFO %d never outgrew the %d-slot ring", deepest, minQueue)
	}
	if faults == 0 || offlined == 0 {
		t.Errorf("the matrix saw %d fault events and %d offlined pages", faults, offlined)
	}
}

// TestStreamedMatchesReferenceErrors: both controllers refuse the same
// inputs with the same words.
func TestStreamedMatchesReferenceErrors(t *testing.T) {
	drained := func() traffic.Generator {
		g := &traffic.Sequential{Bits: 64, RateGB: 1, Count: 1}
		g.Next()
		return g
	}
	cases := map[string][]Client{
		"no clients":        nil,
		"all streams empty": {{Name: "a", Gen: drained()}, {Name: "b", Gen: &traffic.Block2D{}}},
	}
	for name, clients := range cases {
		want := runRecorded(referenceRun, interleaved(t), Options{}, clients)
		got := runRecorded(RunWithOptions, interleaved(t), Options{}, clients)
		if want.Err == "" || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed %+v, reference %+v", name, got, want)
		}
	}
}
