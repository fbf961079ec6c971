// Package sched implements the memory controller of the reproduction:
// arbitration between several memory clients, address mapping, and the
// event-driven service loop over a dram.Device. It measures the gap the
// paper's §4 warns about — "the sustainable bandwidth can be much lower
// than the peak bandwidth" once several clients introduce page misses —
// and the latency/FIFO-depth consequences of the access scheme (§3).
package sched

import (
	"fmt"
	"io"
	"math"

	"edram/internal/dram"
	"edram/internal/mapping"
	"edram/internal/power"
	"edram/internal/reliab"
	"edram/internal/traffic"
	"edram/internal/units"
)

// Policy selects the arbitration scheme.
type Policy int

const (
	// RoundRobin serves clients in rotating order.
	RoundRobin Policy = iota
	// FixedPriority always serves the lowest-index client first.
	FixedPriority
	// OldestFirst serves the globally oldest pending request (FCFS).
	OldestFirst
	// OpenPageFirst prefers requests that hit an open page, falling
	// back to the oldest — the paper's "optimizing the access scheme".
	OpenPageFirst
	// Deadline serves the request whose deadline (issue time plus its
	// client's latency budget) expires first — earliest-deadline-first
	// for mixes of real-time and bulk clients (§3).
	Deadline
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case FixedPriority:
		return "fixed-priority"
	case OldestFirst:
		return "oldest-first"
	case OpenPageFirst:
		return "open-page-first"
	case Deadline:
		return "deadline"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Client couples a name with a request stream.
type Client struct {
	Name string
	Gen  traffic.Generator
	// LatencyBudgetNs is the client's service-latency budget, used by
	// the Deadline policy (0 = best effort, treated as a very relaxed
	// deadline).
	LatencyBudgetNs float64
}

// ClientResult reports one client's service quality.
type ClientResult struct {
	Name      string
	Stats     traffic.LatencyStats
	BitsMoved int64
	// AchievedGBps is the client's data rate over the whole run.
	AchievedGBps float64
}

// Result is the outcome of one controller run.
type Result struct {
	Policy      Policy
	MappingName string
	Clients     []ClientResult
	// PeakGBps is the device interface peak.
	PeakGBps float64
	// SustainedGBps is total moved data over the makespan.
	SustainedGBps float64
	// SustainedFraction = SustainedGBps / PeakGBps.
	SustainedFraction float64
	// HitRate is the device's open-page hit rate.
	HitRate    float64
	DurationNs float64
	Device     dram.Stats
	// Trace holds the per-request log when Options.Trace was set.
	Trace []TraceEntry
	// Reliability holds the fault-injection counters when
	// Options.Reliability was set; nil on fault-free runs.
	Reliability *ReliabilityStats
	// Offlined lists the pages the graceful-degradation rung took out
	// of service (empty on fault-free or fully-repairable runs).
	Offlined [][2]int
}

// ReliabilityStats is the controller-level view of the reliability
// pipeline's counters.
type ReliabilityStats = reliab.Stats

// queued is one arrived request in a client's queue, packed into 24
// bytes: the fields the controller reads, and the served flag of a
// request the reorder window took ahead of an older one.
type queued struct {
	issueNs float64
	addrB   int64
	bits    int32
	write   bool
	done    bool
}

// minQueue is a client queue's first ring size (a power of two).
const minQueue = 64

// clientState is one client's queue. Requests are numbered in stream
// order; request i, once arrived and until the head passes it, lives
// in ring[i&(len(ring)-1)]. The generator is pulled one request ahead:
// peek is the next request to arrive, valid while more is set.
type clientState struct {
	gen     traffic.Generator
	peek    traffic.Request
	more    bool
	ring    []queued
	next    int // first unserved request
	arrived int // requests with IssueNs <= now (>= next)
	served  int
	lats    []float64
	maxFIFO int
	bits    int64
}

// at returns request idx, which must lie in [next, arrived).
func (st *clientState) at(idx int) *queued {
	return &st.ring[idx&(len(st.ring)-1)]
}

// pull reads the generator's next request into peek.
func (st *clientState) pull() {
	st.peek, st.more = st.gen.Next()
}

// arrive moves the peeked request into the queue, doubling the ring
// when the queue is full, and pulls the one after it. It fails on a
// request wider than the queue record holds.
func (st *clientState) arrive() error {
	r := st.peek
	if r.Bits > math.MaxInt32 {
		return fmt.Errorf("request of %d bits exceeds the controller's %d-bit limit", r.Bits, math.MaxInt32)
	}
	if st.arrived-st.next == len(st.ring) {
		ring := make([]queued, max(2*len(st.ring), minQueue))
		for i := st.next; i < st.arrived; i++ {
			ring[i&(len(ring)-1)] = *st.at(i)
		}
		st.ring = ring
	}
	*st.at(st.arrived) = queued{issueNs: r.IssueNs, addrB: r.AddrB, bits: int32(r.Bits), write: r.Write}
	st.arrived++
	st.pull()
	return nil
}

// head returns the client's oldest unserved, arrived request index.
// markServed keeps next at the first unserved request, so the head is
// a bounds check, not a scan — this sits in every policy's inner loop.
func (st *clientState) head() (int, bool) {
	return st.next, st.next < st.arrived
}

// appendCandidates appends up to window unserved, arrived request
// indices in age order to out (typically a scratch slice reused across
// picks — the per-pick allocation here used to dominate the
// simulator's allocation profile).
func (st *clientState) appendCandidates(out []int, window int) []int {
	n := 0
	for i := st.next; i < st.arrived && n < window; i++ {
		if !st.at(i).done {
			out = append(out, i)
			n++
		}
	}
	return out
}

// markServed records completion of request idx and advances the head
// past every served request, which frees their ring slots.
func (st *clientState) markServed(idx int) {
	st.at(idx).done = true
	st.served++
	for st.next < st.arrived && st.at(st.next).done {
		st.next++
	}
}

// Options configures a controller run beyond the arbitration policy.
type Options struct {
	Policy Policy
	// ClosedPage issues an auto-precharge after every request (the
	// closed-page policy): random mixes avoid the conflict-miss
	// precharge on the critical path, streams lose their open-page
	// hits. Ablated in the E8 companion bench.
	ClosedPage bool
	// ReorderWindow lets the OpenPageFirst arbiter look past each
	// client's head request, FR-FCFS style: among the first
	// ReorderWindow pending requests per client it prefers an
	// open-page hit, falling back to the globally oldest head.
	// 0 or 1 keeps strict per-client FIFO order.
	ReorderWindow int
	// Trace, when true, records one TraceEntry per served request in
	// Result.Trace (issue order).
	Trace bool
	// Observer, when non-nil, is invoked synchronously with the
	// TraceEntry of every served request as it completes — the
	// streaming counterpart of Trace (same hook style as the design
	// explorer's WithObserver). It runs on the simulation goroutine, so
	// it must not block; it sees events in service order.
	Observer func(TraceEntry)
	// Reliability, when non-nil, arms the fault-injection pipeline: a
	// deterministic fault process backs the device with functional
	// arrays, every read is checked under the configured ECC, and
	// faulty accesses climb the detect→retry→remap→degrade ladder.
	Reliability *reliab.Config
	// FaultObserver, when non-nil (and Reliability is armed), receives
	// every runtime FaultEvent in service order — the reliability
	// counterpart of Observer, with the same contract.
	FaultObserver func(reliab.FaultEvent)
}

// TraceEntry is one served request in the command trace.
type TraceEntry struct {
	Client    string
	AddrB     int64
	Bank, Row int
	Write     bool
	IssueNs   float64
	StartNs   float64
	DoneNs    float64
	Hit       bool
}

// RunWithOptions serves the clients' request streams on a device built
// from devCfg, translating addresses through m under the controller
// options opt. It returns the full report.
//
// Generators are pulled lazily, in arrival order, interleaved across
// clients: each client's next request is read once the simulated clock
// is about to reach the one before it, and only its arrived but
// unserved requests are held. Two clients must therefore not share
// mutable generator state (a common rng, say), or the streams would
// depend on the pull order.
func RunWithOptions(devCfg dram.Config, m mapping.Mapping, opt Options, clients []Client) (Result, error) {
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
	states := make([]clientState, len(clients))
	pending := 0 // clients with requests still to serve
	for i, c := range clients {
		states[i].gen = c.Gen
		states[i].pull()
		if states[i].more {
			pending++
			states[i].lats = make([]float64, 0, minQueue)
		}
	}
	if pending == 0 {
		return Result{}, fmt.Errorf("sched: all client streams empty")
	}

	now := 0.0
	rrNext := 0
	// Scratch for the OpenPageFirst window scan, reused across picks.
	scratch := make([]int, 0, window)
	var trace []TraceEntry
	beatsOf := func(bits int) int {
		n := units.CeilDiv(bits, devCfg.DataBits)
		if n < 1 {
			n = 1
		}
		return n
	}

	for pending > 0 {
		// Advance arrivals; find the set of ready client heads.
		anyReady := false
		nextArrival := math.Inf(1)
		for i := range states {
			st := &states[i]
			for st.more && st.peek.IssueNs <= now+1e-9 {
				if err := st.arrive(); err != nil {
					return Result{}, fmt.Errorf("sched: client %q: %w", clients[i].Name, err)
				}
			}
			if st.next < st.arrived {
				anyReady = true
			} else if st.more && st.peek.IssueNs < nextArrival {
				nextArrival = st.peek.IssueNs
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

		pick, reqIdx := choose(policy, states, rrNext, dev, m, window, budgets, scratch)
		if policy == RoundRobin {
			rrNext = (pick + 1) % len(states)
		}
		st := &states[pick]
		req := *st.at(reqIdx)
		bank, row := m.Map(req.addrB)
		res, err := dev.Burst(math.Max(now, req.issueNs), bank, row, beatsOf(int(req.bits)), req.write)
		if err != nil {
			return Result{}, fmt.Errorf("sched: serving client %q: %w", clients[pick].Name, err)
		}
		doneNs := res.DoneNs
		if ladder != nil {
			doneNs, err = ladder.AfterAccess(clients[pick].Name, bank, row, req.write, beatsOf(int(req.bits)), res)
			if err != nil {
				return Result{}, fmt.Errorf("sched: serving client %q: %w", clients[pick].Name, err)
			}
		}
		st.lats = append(st.lats, doneNs-req.issueNs)
		st.bits += int64(req.bits)
		st.markServed(reqIdx)
		if !st.more && st.next == st.arrived {
			pending--
		}
		if opt.Trace || opt.Observer != nil {
			e := TraceEntry{
				Client: clients[pick].Name, AddrB: req.addrB,
				Bank: bank, Row: row, Write: req.write,
				IssueNs: req.issueNs, StartNs: res.StartNs, DoneNs: doneNs,
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

// CoreEnergy summarizes the run's DRAM core energy using the given
// coefficients (activations = misses + empties, plus refresh rounds).
func (r Result) CoreEnergy(ce power.CoreEnergy, pageBits int) power.SimEnergy {
	activates := r.Device.PageMisses + r.Device.PageEmpties
	var bits int64
	for _, c := range r.Clients {
		bits += c.BitsMoved
	}
	return ce.EnergyOfCounts(activates, r.Device.Refreshes, bits, pageBits)
}

// WriteTraceCSV renders the trace as CSV.
func (r Result) WriteTraceCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "client,addr,bank,row,write,issue_ns,start_ns,done_ns,hit\n"); err != nil {
		return err
	}
	for _, e := range r.Trace {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%t,%.1f,%.1f,%.1f,%t\n",
			e.Client, e.AddrB, e.Bank, e.Row, e.Write, e.IssueNs, e.StartNs, e.DoneNs, e.Hit); err != nil {
			return err
		}
	}
	return nil
}

// choose picks the next (client, request index) among ready requests.
// All policies except OpenPageFirst consider only each client's head;
// OpenPageFirst additionally looks `window` requests deep per client
// (FR-FCFS style) when window > 1, collecting indices into the
// caller-owned scratch slice.
func choose(policy Policy, states []clientState, rrNext int, dev *dram.Device, m mapping.Mapping, window int, budgets []float64, scratch []int) (int, int) {
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
			if idx, ok := head(i); ok && states[i].at(idx).issueNs < bestT {
				best, bestIdx, bestT = i, idx, states[i].at(idx).issueNs
			}
		}
		if best >= 0 {
			return best, bestIdx
		}
	case Deadline:
		best, bestIdx, bestT := -1, 0, math.Inf(1)
		for i := 0; i < n; i++ {
			if idx, ok := head(i); ok {
				dl := states[i].at(idx).issueNs + budgets[i]
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
				req := states[i].at(idx)
				if idx == states[i].next && req.issueNs < bestT {
					best, bestIdx, bestT = i, idx, req.issueNs
				}
				bank, row := m.Map(req.addrB)
				if dev.OpenRow(bank) == row && req.issueNs < hitT {
					hitBest, hitIdx, hitT = i, idx, req.issueNs
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
