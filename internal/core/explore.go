// Parallel design-space exploration engine. The paper's study spans
// interface width × banks × page length × block size × redundancy ×
// process (§3); space lays that product out as Seq numbers, and
// SweepContext evaluates its points on a worker pool and folds them in
// the caller's goroutine. Workers claim the window's above-page blocks
// in Seq order through one shared counter, and each builds a block's
// templates into a slot table of its own (memo.go). A worker emits one
// evaluation record per built point (pointEval plus a violation mask),
// measured from the point's template; the fold keeps an incremental
// Pareto front of records and the closest miss, and builds full
// Candidates — Macro and reasons — only for what the sweep returns.
// An observer reads the finished sweep: after the fold, one pass in the
// caller's goroutine hands it every built point of the window in Seq
// order. Every other entry point reads that fold — ExploreContext
// streams the built candidates through its observer, and
// Explore/Recommend in core.go are thin compatibility wrappers.

package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edram/internal/edram"
	"edram/internal/geom"
	"edram/internal/reliab"
	"edram/internal/tech"
)

// Point is one un-evaluated coordinate of the §3 design space: a macro
// spec plus the number of identical macros the capacity is split
// across. Seq is the position in canonical enumeration order, carried
// through evaluation so results can be re-ordered deterministically no
// matter which worker produced them.
type Point struct {
	Seq    int
	Spec   edram.Spec
	Macros int
}

// The sweep's free dimensions (§3), one table per Seq digit. space is
// the only code that turns these tables into Seq numbers and back.
var (
	sweepMacroOrgs  = []int{1, 2}
	sweepIfaceBits  = []int{16, 32, 64, 128, 256, 512}
	sweepBankCounts = []int{1, 2, 4, 8}
	sweepPageMults  = []int{4, 8, 16}
	sweepBlockBits  = []int{geom.Block256K, geom.Block1M}
	sweepRedLevels  = []edram.RedundancyLevel{edram.RedundancyNone, edram.RedundancyLow, edram.RedundancyStd, edram.RedundancyHigh}
	sweepECCModes   = []reliab.ECC{reliab.ECCNone, reliab.ECCSECDED}
)

// The Seq digits, most significant first: a point's Seq is its
// mixed-radix position in org × iface × banks × page × block ×
// redundancy × ECC × process.
const (
	digitOrg = iota
	digitIface
	digitBanks
	digitPage
	digitBlock
	digitRed
	digitECC
	digitProc
	numDigits
)

// space is the Seq layout of one explore: the macro organizations the
// capacity splits evenly across, the resolved process slice, and the
// stride of every digit. It is the single owner of the Seq ↔ Point
// mapping — the enumerator, the prune plan and delta materialization
// all decode through it.
type space struct {
	capacity int
	orgs     []int
	procs    []tech.Process
	radix    [numDigits]int
	stride   [numDigits]int
	total    int // every Seq lies in [0, total)
}

// newSpace lays out the design space of the requirements over the
// resolved process slice.
func newSpace(req Requirements, procs []tech.Process) *space {
	s := &space{capacity: req.CapacityMbit, procs: procs}
	for _, m := range sweepMacroOrgs {
		if req.CapacityMbit%m == 0 {
			s.orgs = append(s.orgs, m)
		}
	}
	s.radix = [numDigits]int{len(s.orgs), len(sweepIfaceBits), len(sweepBankCounts), len(sweepPageMults),
		len(sweepBlockBits), len(sweepRedLevels), len(sweepECCModes), len(procs)}
	s.total = 1
	for d := numDigits - 1; d >= 0; d-- {
		s.stride[d] = s.total
		s.total *= s.radix[d]
	}
	return s
}

// digits splits a Seq in [0, total) into its digit indices.
func (s *space) digits(seq int) (d [numDigits]int) {
	for i, st := range s.stride {
		d[i], seq = seq/st, seq%st
	}
	return d
}

// point decodes a Seq in [0, total) into its design point.
func (s *space) point(seq int) Point {
	d := s.digits(seq)
	return s.at(seq, &d)
}

// cursor is a position in the space: a Seq and its digits. The sweep's
// walk steps one in place and hands it to the caller by pointer, so
// walking a point copies no Point.
type cursor struct {
	seq int
	d   [numDigits]int
}

// walk steps c through the Seqs of [from, to) in order, calling yield at
// each; it decodes only from and steps the digits from there.
func (s *space) walk(from, to int, c *cursor, yield func()) {
	c.seq, c.d = from, s.digits(from)
	for ; c.seq < to; c.seq++ {
		yield()
		for i := numDigits - 1; i >= 0; i-- {
			if c.d[i]++; c.d[i] < s.radix[i] {
				break
			}
			c.d[i] = 0
		}
	}
}

// at is the point with the given Seq and digits.
func (s *space) at(seq int, d *[numDigits]int) Point {
	macros := s.orgs[d[digitOrg]]
	iface := sweepIfaceBits[d[digitIface]]
	return Point{
		Seq:    seq,
		Macros: macros,
		Spec: edram.Spec{
			CapacityMbit:  s.capacity / macros,
			InterfaceBits: iface,
			Banks:         sweepBankCounts[d[digitBanks]],
			PageBits:      iface * sweepPageMults[d[digitPage]],
			BlockBits:     sweepBlockBits[d[digitBlock]],
			Redundancy:    sweepRedLevels[d[digitRed]],
			ECC:           sweepECCModes[d[digitECC]],
			Process:       &s.procs[d[digitProc]],
		},
	}
}

// resolveProcesses returns the explore's process slice: the request's,
// or the default DRAM-based process. A sweep decodes every point
// against the same slice, so process identity resolves by pointer on
// the hot path.
func resolveProcesses(req Requirements) []tech.Process {
	if len(req.Processes) > 0 {
		return req.Processes
	}
	return []tech.Process{tech.Siemens024()}
}

// SweepCount is the number of points in the requirements' design
// space — the exclusive upper bound of every Point.Seq. It is the
// denominator of explore progress reporting and the range limit of
// checkpointed (range-partitioned) explores.
func SweepCount(req Requirements) int {
	return newSpace(req, resolveProcesses(req)).total
}

// maxSeq is the open upper bound of an unrestricted sweep range.
const maxSeq = int(^uint(0) >> 1)

// outcome is a worker's verdict on one point: whether it is buildable
// and, if so, its evaluation record and violation mask. Workers forward
// outcomes to the collector at batch granularity.
type outcome struct {
	ev   pointEval
	viol uint8
	ok   bool
}

// batch is the outcomes of one claimed block on their way from a
// worker to the collector (outs[:n], in Seq order), which returns it
// to batchPool: the steady-state sweep allocates no per-batch slices.
// Pooled content is always rewritten before use — nothing carries
// over.
type batch struct {
	n    int
	outs []outcome
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// getBatch takes an empty batch from the pool that holds n outcomes
// without growing.
func getBatch(n int) *batch {
	b := batchPool.Get().(*batch)
	if len(b.outs) < n {
		b.outs = make([]outcome, n)
	}
	b.n = 0
	return b
}

// blockSpan is the number of Seqs in one above-page block: the page
// variants of every projection in the block. A sweep worker claims
// whole blocks, so it never splits one.
func (s *space) blockSpan() int { return s.stride[digitPage] * s.radix[digitPage] }

// proj is the projection of a Seq: the Seq with its page digit
// removed, in [0, total/radix[page]). The page variants of a point
// share it, and with it every page-independent sub-result — the
// worker's memo slot (memo.go) and a DeltaState's stored floats.
func (s *space) proj(seq int) int {
	st := s.stride[digitPage]
	return seq/s.blockSpan()*st + seq%st
}

// walkBlock steps c through the points of above-page block blk that lie
// in the sorted, disjoint Seq ranges, in order, calling yield at each.
// The ranges are a prune plan's enumerated window, so Seq numbering
// stays absolute: a ranged or pruned sweep is exactly the corresponding
// slice of the full enumeration (the property range-partitioned
// checkpoints rely on).
func (s *space) walkBlock(ranges []seqRange, blk int, c *cursor, yield func()) {
	span := s.blockSpan()
	lo, hi := blk*span, (blk+1)*span
	for i := sort.Search(len(ranges), func(i int) bool { return ranges[i].To > lo }); i < len(ranges) && ranges[i].From < hi; i++ {
		s.walk(max(lo, ranges[i].From), min(hi, ranges[i].To), c, yield)
	}
}

// ExploreStats is a snapshot of the engine's progress counters,
// delivered through WithProgress (periodically and once more when the
// run finishes, with Done set).
type ExploreStats struct {
	// Enumerated counts design points the workers evaluated so far;
	// Built counts the subset that produced a buildable macro;
	// Infeasible counts built candidates violating at least one
	// requirement.
	Enumerated int64
	Built      int64
	Infeasible int64
	// Pruned counts feasible candidates discarded by the incremental
	// Pareto front (dominated on arrival, or evicted by a later
	// arrival); FrontSize is the current front population.
	Pruned    int64
	FrontSize int
	// Skipped counts points a constraint-pruned enumeration never
	// evaluated (whole subspaces proven infeasible before the
	// sweep — see prune.go); SkippedBuildable is the subset that would
	// have produced a buildable macro, every one of them infeasible.
	// Both stay zero without WithPruning. Enumerated/Built/Infeasible
	// keep their exact semantics for enumerated points; the sweep's
	// SweepResult folds the skips back in.
	Skipped          int64
	SkippedBuildable int64
	// Workers is the pool size; WallTime the elapsed time since the
	// engine started.
	Workers  int
	WallTime time.Duration
	// Done is true on the final snapshot after the sweep is exhausted
	// (it stays false when the run was cancelled mid-sweep).
	Done bool
}

// PointsPerSec is the evaluation throughput of the run so far.
func (s ExploreStats) PointsPerSec() float64 {
	if s.WallTime <= 0 {
		return 0
	}
	return float64(s.Enumerated) / s.WallTime.Seconds()
}

type exploreConfig struct {
	workers       int
	progress      func(ExploreStats)
	progressEvery int
	observer      func(Candidate)
	seqFrom       int
	seqTo         int
	pruned        bool
}

// ExploreOption configures SweepContext, ExploreContext and
// RecommendContext.
type ExploreOption func(*exploreConfig)

// WithWorkers sets the evaluation pool size (default
// runtime.GOMAXPROCS(0)). n < 1 makes the sweep fail.
func WithWorkers(n int) ExploreOption {
	return func(c *exploreConfig) { c.workers = n }
}

// WithProgress registers a callback invoked (from the engine's collector
// goroutine, serialized) every progress interval and once more when the
// run ends.
func WithProgress(fn func(ExploreStats)) ExploreOption {
	return func(c *exploreConfig) { c.progress = fn }
}

// WithProgressEvery sets how many enumerated points separate two
// progress callbacks (default 512).
func WithProgressEvery(n int) ExploreOption {
	return func(c *exploreConfig) { c.progressEvery = n }
}

// WithObserver registers a callback invoked for every built candidate
// of the enumerated window, feasible or not, in increasing Seq, after
// the fold — before ExploreContext sends it on the result channel. It
// is how a caller of SweepContext sees the candidates the fold does not
// keep: once the workers have exited, the calling goroutine assembles
// each built candidate in full, Macro and reasons included, and hands
// it over, so the order is the same at every worker count.
func WithObserver(fn func(Candidate)) ExploreOption {
	return func(c *exploreConfig) { c.observer = fn }
}

// WithSeqRange restricts the exploration to points whose canonical
// sequence number lies in [from, to). Seq numbering stays absolute —
// the ranged run evaluates exactly the corresponding slice of the full
// enumeration, so a union of disjoint ranges covering [0, SweepCount)
// reproduces the unrestricted run result-for-result. This is the
// primitive behind resumable range-partitioned explore checkpoints.
// from < 0 or to <= 0 select the open bound.
func WithSeqRange(from, to int) ExploreOption {
	return func(c *exploreConfig) {
		if from < 0 {
			from = 0
		}
		if to <= 0 {
			to = maxSeq
		}
		c.seqFrom, c.seqTo = from, to
	}
}

// WithPruning enables constraint-pruned enumeration: subspaces whose
// buildable points are all provably infeasible under the requirements
// are skipped analytically instead of evaluated (see prune.go). The
// feasible candidates are identical to an unpruned run's; ExploreStats
// accounts the skipped points in the Skipped/SkippedBuildable counters
// and the SweepResult folds them back into the unpruned totals. Off by
// default, which sweeps through the empty plan: Explore()'s
// all-buildable-candidates contract and RecommendContext's
// nearest-miss diagnostics want the full stream.
func WithPruning() ExploreOption {
	return func(c *exploreConfig) { c.pruned = true }
}

// SweepResult is a finished sweep folded to what every caller reads:
// the counters of an unpruned sweep over the same range — points a
// pruned sweep skipped analytically count as enumerated, and its
// skipped buildable points as built and infeasible (that is what
// justified skipping them) — the feasible Pareto front in canonical
// order, and the closest miss.
type SweepResult struct {
	Enumerated int64
	Built      int64
	Infeasible int64
	Frontier   []Candidate
	// Nearest is the closest miss among the evaluated points (the
	// CloserMiss pick: fewest violated constraints, ties to the lower
	// Seq), or the zero Candidate when none was infeasible. A pruned
	// sweep picks among the points it enumerated only.
	Nearest Candidate
}

// Pruned is the number of feasible candidates the front discarded:
// every built candidate is infeasible, on the front, or was discarded
// exactly once, whatever the arrival order or partitioning.
func (r SweepResult) Pruned() int64 {
	return r.Built - r.Infeasible - int64(len(r.Frontier))
}

// Merge folds r and more into the union result: counters sum, the
// fronts merge through a fresh Frontier and the closest misses through
// CloserMiss. Dominance is a strict partial order, so the merged front
// is exactly the front the undivided sweep produces, independent of
// partition boundaries and merge order. With no argument it puts r's
// own front in canonical order.
func (r SweepResult) Merge(more ...SweepResult) SweepResult {
	front := NewFrontier()
	out := SweepResult{}
	for _, x := range append([]SweepResult{r}, more...) {
		out.Enumerated += x.Enumerated
		out.Built += x.Built
		out.Infeasible += x.Infeasible
		for _, c := range x.Frontier {
			front.Add(c)
		}
		if len(x.Nearest.Reasons) > 0 && CloserMiss(&x.Nearest, &out.Nearest) {
			out.Nearest = x.Nearest
		}
	}
	out.Frontier = front.Candidates()
	return out
}

// Recommendations quantizes the front into at most four named
// configurations, or says why there is none: nothing buildable, or
// nothing feasible, naming the violated constraints of the closest
// miss.
func (r SweepResult) Recommendations(req Requirements) ([]Recommendation, error) {
	if r.Built == 0 {
		return nil, fmt.Errorf("core: no buildable configuration for %+v", req)
	}
	if len(r.Frontier) == 0 {
		return nil, fmt.Errorf("core: no feasible configuration; closest misses: %v", r.Nearest.Reasons)
	}
	return Quantize(r.Frontier), nil
}

// fold accumulates a sweep's evaluation records into what it returns:
// the counters, a Pareto front of the feasible records and the closest
// miss by (number of violations, Seq).
type fold struct {
	enumerated, built, infeasible int64
	front                         front
	missViol, missSeq             int // missViol 0: no miss yet
}

// foldFrontCap presizes a fold's front. Over 150 random explores shaped
// like perfbench's cold ones, the final front held 32 records at the
// median and at most 124, so a front grows from this at most once.
const foldFrontCap = 64

// newFold returns an empty fold with its front presized.
func newFold() fold {
	return fold{front: front{recs: make([]pointEval, 0, foldFrontCap)}}
}

// add folds one built point's record and violation mask.
func (f *fold) add(ev *pointEval, viol uint8) {
	f.built++
	if viol == 0 {
		f.front.add(ev, nil)
		return
	}
	f.infeasible++
	if n := bits.OnesCount8(viol); f.missViol == 0 || n < f.missViol || n == f.missViol && ev.seq < f.missSeq {
		f.missViol, f.missSeq = n, ev.seq
	}
}

// result is the fold as a SweepResult, with a pruned window's analytic
// skips counted back in and only the front survivors and the closest
// miss materialized, through mm.
func (f *fold) result(skipped, skippedBuildable int64, mm *evalMemo) SweepResult {
	res := SweepResult{
		Enumerated: f.enumerated + skipped,
		Built:      f.built + skippedBuildable,
		Infeasible: f.infeasible + skippedBuildable,
	}
	if len(f.front.recs) > 0 {
		sort.Sort(&f.front)
		res.Frontier = make([]Candidate, len(f.front.recs))
		for i := range f.front.recs {
			res.Frontier[i] = mm.candidate(f.front.recs[i].seq)
		}
	}
	if f.missViol > 0 {
		res.Nearest = mm.candidate(f.missSeq)
	}
	return res
}

// sweep is one validated explore: its options, its Seq layout, the
// prune plan of the requested window [from, to) and the window's memo.
// With sink non-nil, the fold also writes every built record there.
type sweep struct {
	cfg      exploreConfig
	space    *space
	plan     *prunePlan
	memo     *evalMemo
	from, to int
	sink     *evalStore
}

// newSweep applies the options and validates them with the
// requirements.
func newSweep(req Requirements, opts []ExploreOption) (*sweep, error) {
	cfg := exploreConfig{workers: runtime.GOMAXPROCS(0), progressEvery: 512, seqTo: maxSeq}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		return nil, fmt.Errorf("core: worker count %d < 1", cfg.workers)
	}
	if cfg.progressEvery < 1 {
		return nil, fmt.Errorf("core: progress interval %d < 1", cfg.progressEvery)
	}
	if cfg.seqFrom >= cfg.seqTo {
		return nil, fmt.Errorf("core: empty seq range [%d, %d)", cfg.seqFrom, cfg.seqTo)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	sp := newSpace(req, resolveProcesses(req))
	plan := &prunePlan{}
	if cfg.pruned {
		plan = newPrunePlan(req, sp)
	}
	from, to := cfg.seqFrom, min(cfg.seqTo, sp.total)
	return &sweep{cfg: cfg, space: sp, plan: plan, memo: newEvalMemo(req, sp), from: from, to: to}, nil
}

// sweepRecorded is SweepContext writing every built evaluation record
// into sink as well, in place at its Seq. A cancelled sweep leaves the
// records it had already folded there.
func sweepRecorded(ctx context.Context, req Requirements, sink *evalStore, opts ...ExploreOption) (SweepResult, error) {
	s, err := newSweep(req, opts)
	if err != nil {
		return SweepResult{}, err
	}
	s.sink = sink
	return s.run(ctx)
}

// SweepContext enumerates and evaluates the design space on a worker
// pool and folds every evaluated point in the caller's goroutine: the
// counters, the one Pareto front of the sweep and the progress
// callbacks. With an observer set, it then hands the observer every
// built point in Seq order, before the final progress snapshot. It
// returns once the window is exhausted, or with ctx's error once ctx is
// cancelled; either way its workers have exited.
func SweepContext(ctx context.Context, req Requirements, opts ...ExploreOption) (SweepResult, error) {
	s, err := newSweep(req, opts)
	if err != nil {
		return SweepResult{}, err
	}
	return s.run(ctx)
}

// run is the engine: workers claim the window's blocks and evaluate
// them, and the calling goroutine folds the outcomes.
func (s *sweep) run(ctx context.Context) (SweepResult, error) {
	cfg := &s.cfg
	ranges := s.plan.enumerated(s.from, s.to)
	span := s.space.blockSpan()
	start := time.Now() //nolint:edramvet/determinism // feeds ExploreStats.WallTime only, never results

	// Workers: claim above-page blocks in Seq order through one shared
	// counter, so every page variant of a projection reaches one worker's
	// slot table, and evaluate each block's enumerated points through
	// it. The outcomes (including unbuildable
	// corners, so the collector can count enumeration) go to the
	// collector one block per batch — per-point channel traffic would
	// rival the few-µs evaluation cost itself. The collector returns
	// each batch to the pool once it has read it.
	var claimed atomic.Int64 // the last block claimed
	claimed.Store(int64(s.from/span) - 1)
	last := int64((s.to - 1) / span)
	results := make(chan *batch, cfg.workers*2)
	var wg sync.WaitGroup
	wg.Add(cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		go func() {
			defer wg.Done()
			var c cursor
			slots := s.memo.table()
			for blk := claimed.Add(1); blk <= last; blk = claimed.Add(1) {
				select {
				case <-ctx.Done():
					return
				default:
				}
				b := getBatch(span)
				s.space.walkBlock(ranges, int(blk), &c, func() {
					s.memo.evaluate(&b.outs[b.n], &c, slots)
					b.n++
				})
				if b.n == 0 { // the plan skips the whole block
					batchPool.Put(b)
					continue
				}
				select {
				case results <- b:
				case <-ctx.Done():
					batchPool.Put(b)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: the calling goroutine owns the fold, so the progress
	// callbacks need no locking. After a cancellation it only drains,
	// until the workers have exited.
	f := newFold()
	skipped, skippedBuildable := s.plan.tally(s.from, s.to)
	snapshot := func(done bool) ExploreStats {
		return ExploreStats{
			Enumerated: f.enumerated, Built: f.built, Infeasible: f.infeasible,
			Pruned: f.front.pruned, FrontSize: len(f.front.recs),
			Skipped: skipped, SkippedBuildable: skippedBuildable,
			Workers: cfg.workers, WallTime: time.Since(start), Done: done,
		}
	}
	lastProgress := int64(0)
	for b := range results {
		if ctx.Err() != nil {
			batchPool.Put(b)
			continue
		}
		for i := range b.n {
			o := &b.outs[i]
			f.enumerated++
			if !o.ok { // unbuildable corner of the space
				continue
			}
			f.add(&o.ev, o.viol)
			if s.sink != nil {
				s.sink.put(&o.ev)
			}
		}
		batchPool.Put(b)
		if cfg.progress != nil && f.enumerated-lastProgress >= int64(cfg.progressEvery) {
			lastProgress = f.enumerated
			cfg.progress(snapshot(false))
		}
	}
	err := ctx.Err()
	if err == nil && cfg.observer != nil {
		err = s.emit(ctx, ranges)
	}
	if cfg.progress != nil {
		cfg.progress(snapshot(err == nil))
	}
	if err != nil {
		return SweepResult{}, err
	}
	return f.result(skipped, skippedBuildable, s.memo), nil
}

// emit is the observer's pass over a folded sweep: it walks the
// enumerated ranges in Seq order through one slot table, so each
// projection is built once, and hands the observer every buildable
// point's full candidate. It stops with ctx's error once ctx is
// cancelled.
func (s *sweep) emit(ctx context.Context, ranges []seqRange) error {
	var c cursor
	slots := s.memo.table()
	for _, r := range ranges {
		s.space.walk(r.From, r.To, &c, func() {
			if ctx.Err() != nil {
				return
			}
			if sl, _, ok := s.memo.slot(&c, slots); ok {
				pt := s.space.at(c.seq, &c.d)
				s.cfg.observer(s.memo.materialize(sl, &pt))
			}
		})
	}
	return ctx.Err()
}

// ExploreContext streams every buildable candidate (feasible or not)
// of the sweep on the returned channel, in increasing Seq: it validates
// synchronously, then runs SweepContext in a goroutine with an observer
// that sends each built candidate after the caller's own observer ran.
// The candidates follow the fold, so the first arrives once the whole
// window is evaluated. The channel is closed when the sweep is
// exhausted or ctx is cancelled. The error return covers invalid
// requirements or options only.
func ExploreContext(ctx context.Context, req Requirements, opts ...ExploreOption) (<-chan Candidate, error) {
	s, err := newSweep(req, opts)
	if err != nil {
		return nil, err
	}
	// A few projections' worth of candidates, so materializing the next
	// ones overlaps the consumer.
	out := make(chan Candidate, 128)
	user := s.cfg.observer
	s.cfg.observer = func(c Candidate) {
		if user != nil {
			user(c)
		}
		select {
		case out <- c:
		case <-ctx.Done():
		}
	}
	go func() {
		defer close(out)
		_, _ = s.run(ctx) // the consumer sees a cancellation through its own ctx
	}()
	return out, nil
}

// RecommendContext sweeps the design space through the incremental
// Pareto front and quantizes the feasible survivors into at most four
// named configurations, naming the fold's closest miss in the error
// when nothing is feasible. It is the context-aware, parallel form of
// Recommend.
func RecommendContext(ctx context.Context, req Requirements, opts ...ExploreOption) ([]Recommendation, error) {
	res, err := SweepContext(ctx, req, opts...)
	if err != nil {
		return nil, err
	}
	return res.Recommendations(req)
}

// CloserMiss reports whether the infeasible candidate c is a closer
// miss than nearest: fewer violated constraints, ties to the lower Seq,
// so the pick does not depend on which worker finished first. Any miss
// beats a nearest without reasons (the zero Candidate).
func CloserMiss(c, nearest *Candidate) bool {
	switch {
	case len(nearest.Reasons) == 0:
		return true
	case len(c.Reasons) != len(nearest.Reasons):
		return len(c.Reasons) < len(nearest.Reasons)
	default:
		return c.Seq < nearest.Seq
	}
}

// front is the one Pareto-front implementation: an incremental scan over
// evaluation records, behind both the sweep's fold (records only) and
// the exported Frontier (each member's full Candidate in cands, beside
// its record). add keeps a record only while no member dominates it and
// evicts members the newcomer dominates. Because dominance is a strict
// partial order, the final membership is independent of insertion
// order — the property the parallel engine relies on for deterministic
// results.
type front struct {
	recs   []pointEval
	cands  []Candidate // parallel to recs in a Frontier; nil in a fold
	pruned int64
}

// add offers a record to the front, with its candidate when the front
// keeps candidates (c nil otherwise), and reports whether it entered.
func (f *front) add(ev *pointEval, c *Candidate) bool {
	// Single pass over the members: dominance is a strict partial order
	// and the members are mutually non-dominated, so if some member
	// dominates ev, then ev dominates no member (otherwise transitivity
	// would order two members against each other). The scan can
	// therefore evict ev-dominated members in place as it goes and still
	// abort unchanged the moment a dominator of ev appears — no member
	// can have been evicted by then. Compaction moves an element only
	// after the first eviction, so the common no-eviction add copies
	// nothing at all.
	w := 0
	for i := range f.recs {
		m := &f.recs[i]
		if dominates(m, ev) {
			f.pruned++
			return false
		}
		if dominates(ev, m) {
			f.pruned++
			continue
		}
		if w != i {
			f.recs[w] = f.recs[i]
			if c != nil {
				f.cands[w] = f.cands[i]
			}
		}
		w++
	}
	f.recs = append(f.recs[:w], *ev)
	if c != nil {
		f.cands = append(f.cands[:w], *c)
	}
	return true
}

// Len, Less and Swap put the members in canonical order: area, power,
// cost, descending sustained bandwidth, enumeration sequence. The chain
// of exact comparisons builds a total order over identical evaluation
// results — tolerance would break transitivity and with it the
// canonical front order. Swap moves a member's candidate with its
// record.
func (f *front) Len() int           { return len(f.recs) }
func (f *front) Less(i, j int) bool { return canonicalLess(&f.recs[i], &f.recs[j]) }
func (f *front) Swap(i, j int) {
	f.recs[i], f.recs[j] = f.recs[j], f.recs[i]
	if f.cands != nil {
		f.cands[i], f.cands[j] = f.cands[j], f.cands[i]
	}
}

// canonicalLess is the canonical order of evaluation records, the one
// every returned front is sorted in.
func canonicalLess(a, b *pointEval) bool {
	switch {
	case a.area != b.area: //nolint:edramvet/floateq // exact total-order tie-break
		return a.area < b.area
	case a.power != b.power: //nolint:edramvet/floateq // exact total-order tie-break
		return a.power < b.power
	case a.cost != b.cost: //nolint:edramvet/floateq // exact total-order tie-break
		return a.cost < b.cost
	case a.sustained != b.sustained: //nolint:edramvet/floateq // exact total-order tie-break
		return a.sustained > b.sustained
	default:
		return a.seq < b.seq
	}
}

// Frontier maintains a Pareto front of candidates incrementally, through
// the same record scan as the sweep's fold.
type Frontier struct {
	f front
}

// NewFrontier returns an empty front.
func NewFrontier() *Frontier { return &Frontier{} }

// Add offers a candidate to the front and reports whether it entered.
// Infeasible candidates are ignored (the front is defined over designs
// meeting every requirement).
func (fr *Frontier) Add(c Candidate) bool {
	if !c.Feasible {
		return false
	}
	ev := recordOf(&c)
	return fr.f.add(&ev, &c)
}

// Size is the current front population.
func (fr *Frontier) Size() int { return len(fr.f.recs) }

// Pruned counts feasible candidates discarded so far (dominated on
// arrival or evicted later).
func (fr *Frontier) Pruned() int64 { return fr.f.pruned }

// Candidates returns the front in canonical order (area, power, cost,
// descending sustained bandwidth, enumeration sequence).
func (fr *Frontier) Candidates() []Candidate {
	sort.Sort(&fr.f)
	return append([]Candidate(nil), fr.f.cands...)
}

// Quantize reduces a feasible Pareto front to at most four named picks
// (min-area, min-power, max-bandwidth, min-cost), deduplicated — the
// paper's "set of understandable if slightly sub-optimal solutions".
func Quantize(front []Candidate) []Recommendation {
	if len(front) == 0 {
		return nil
	}
	// pick is the index of the first candidate no later one beats.
	pick := func(better func(a, b *Candidate) bool) int {
		best := 0
		for i := 1; i < len(front); i++ {
			if better(&front[i], &front[best]) {
				best = i
			}
		}
		return best
	}
	picks := [...]struct {
		role string
		i    int
	}{
		{"min-area", pick(func(a, b *Candidate) bool { return a.AreaMm2 < b.AreaMm2 })},
		{"min-power", pick(func(a, b *Candidate) bool { return a.PowerMW < b.PowerMW })},
		{"max-bandwidth", pick(func(a, b *Candidate) bool { return a.SustainedGBps > b.SustainedGBps })},
		{"min-cost", pick(func(a, b *Candidate) bool { return a.CostUSD < b.CostUSD })},
	}
	// Deduplicate identical configurations, keeping the first role.
	type config struct {
		macros, iface, banks, page, block int
		red                               edram.RedundancyLevel
		ecc                               reliab.ECC
	}
	var seen [len(picks)]config
	out := make([]Recommendation, 0, len(picks))
	for _, p := range picks {
		c := &front[p.i]
		k := config{c.Macros, c.Spec.InterfaceBits, c.Spec.Banks, c.Spec.PageBits, c.Spec.BlockBits, c.Spec.Redundancy, c.Spec.ECC}
		dup := false
		for _, s := range seen[:len(out)] {
			dup = dup || s == k
		}
		if !dup {
			seen[len(out)] = k
			out = append(out, Recommendation{Role: p.role, Candidate: *c})
		}
	}
	return out
}
