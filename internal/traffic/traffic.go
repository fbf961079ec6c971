// Package traffic models the memory clients of an embedded system: the
// request streams they emit (sequential, strided, random, 2-D block) and
// the statistics the paper's §3 cares about — sustained bandwidth per
// client and the latency that determines "the necessary FIFO depth".
//
// Addresses are byte addresses; request sizes are in bits to match the
// interface-width vocabulary of the paper.
package traffic

import (
	"fmt"
	"math/rand"
	"sort"
)

// Request is one memory transaction emitted by a client.
type Request struct {
	Client  int
	AddrB   int64 // byte address
	Bits    int   // transfer size in bits
	Write   bool
	IssueNs float64 // arrival time at the controller
}

// Generator produces a request stream. Next returns the following
// request and true, or a zero Request and false when the stream ends.
//
// The controller (sched.RunWithOptions) pulls its clients' generators
// lazily, in arrival order and interleaved across clients, so two
// generators must not share mutable state such as one *rand.Rand.
type Generator interface {
	Next() (Request, bool)
}

// Sequential emits fixed-size requests at consecutive addresses with a
// fixed arrival rate — the classic streaming client (frame output,
// packet drain).
type Sequential struct {
	ClientID int
	StartB   int64
	// LimitB wraps the address back to StartB after LimitB bytes
	// (0 = never wrap).
	LimitB  int64
	Bits    int
	Write   bool
	RateGB  float64 // delivered bandwidth the client demands, GB/s
	Count   int     // number of requests to emit (0 = unbounded)
	emitted int
	offset  int64
}

// IntervalNs returns the request inter-arrival time implied by the rate.
func IntervalNs(bits int, rateGB float64) float64 {
	if rateGB <= 0 || bits <= 0 {
		return 0
	}
	bytes := float64(bits) / 8
	return bytes / rateGB // bytes / (GB/s) = ns
}

// Next implements Generator.
func (s *Sequential) Next() (Request, bool) {
	if s.Count > 0 && s.emitted >= s.Count {
		return Request{}, false
	}
	iv := IntervalNs(s.Bits, s.RateGB)
	r := Request{
		Client:  s.ClientID,
		AddrB:   s.StartB + s.offset,
		Bits:    s.Bits,
		Write:   s.Write,
		IssueNs: float64(s.emitted) * iv,
	}
	s.emitted++
	s.offset += int64(s.Bits / 8)
	if s.LimitB > 0 && s.offset >= s.LimitB {
		s.offset = 0
	}
	return r, true
}

// Strided emits requests with a constant address stride (column walks,
// interlaced field reads).
type Strided struct {
	ClientID int
	StartB   int64
	StrideB  int64
	LimitB   int64 // wrap window (0 = never)
	Bits     int
	Write    bool
	RateGB   float64
	Count    int
	emitted  int
	offset   int64
}

// Next implements Generator.
func (s *Strided) Next() (Request, bool) {
	if s.Count > 0 && s.emitted >= s.Count {
		return Request{}, false
	}
	iv := IntervalNs(s.Bits, s.RateGB)
	r := Request{
		Client:  s.ClientID,
		AddrB:   s.StartB + s.offset,
		Bits:    s.Bits,
		Write:   s.Write,
		IssueNs: float64(s.emitted) * iv,
	}
	s.emitted++
	s.offset += s.StrideB
	if s.LimitB > 0 && s.offset >= s.LimitB {
		s.offset %= s.LimitB
	}
	return r, true
}

// Random emits uniformly distributed addresses inside a window — the
// worst case for page locality (pointer chasing, hash probes).
type Random struct {
	ClientID int
	StartB   int64
	WindowB  int64
	Bits     int
	Write    bool
	RateGB   float64
	Count    int
	Rng      *rand.Rand
	emitted  int
}

// Next implements Generator.
func (r *Random) Next() (Request, bool) {
	if r.Count > 0 && r.emitted >= r.Count {
		return Request{}, false
	}
	if r.Rng == nil {
		r.Rng = rand.New(rand.NewSource(1))
	}
	iv := IntervalNs(r.Bits, r.RateGB)
	align := int64(r.Bits / 8)
	if align < 1 {
		align = 1
	}
	span := r.WindowB / align
	if span < 1 {
		span = 1
	}
	req := Request{
		Client:  r.ClientID,
		AddrB:   r.StartB + r.Rng.Int63n(span)*align,
		Bits:    r.Bits,
		Write:   r.Write,
		IssueNs: float64(r.emitted) * iv,
	}
	r.emitted++
	return req, true
}

// Block2D emits the access pattern of a 2-D block fetch from a raster
// frame (motion compensation, texture reads): for each block, one
// request per line of the block, at a random block position. This is the
// pattern whose page behaviour the frame mapping must optimize.
type Block2D struct {
	ClientID int
	BaseB    int64
	PitchB   int64 // bytes per frame line
	Lines    int   // frame height
	BlockW   int   // block width in bytes
	BlockH   int   // block height in lines
	Write    bool
	RateGB   float64
	Blocks   int // number of blocks to fetch
	Rng      *rand.Rand

	emitted int // requests emitted
	curLine int // next line within current block
	bx, by  int64
}

// Next implements Generator.
func (b *Block2D) Next() (Request, bool) {
	total := b.Blocks * b.BlockH
	if b.emitted >= total {
		return Request{}, false
	}
	if b.Rng == nil {
		b.Rng = rand.New(rand.NewSource(1))
	}
	if b.curLine == 0 { // new block: pick a position
		maxX := b.PitchB - int64(b.BlockW)
		if maxX < 1 {
			maxX = 1
		}
		maxY := int64(b.Lines - b.BlockH)
		if maxY < 1 {
			maxY = 1
		}
		b.bx = b.Rng.Int63n(maxX)
		b.by = b.Rng.Int63n(maxY)
	}
	bits := b.BlockW * 8
	iv := IntervalNs(bits, b.RateGB)
	r := Request{
		Client:  b.ClientID,
		AddrB:   b.BaseB + (b.by+int64(b.curLine))*b.PitchB + b.bx,
		Bits:    bits,
		Write:   b.Write,
		IssueNs: float64(b.emitted) * iv,
	}
	b.emitted++
	b.curLine++
	if b.curLine == b.BlockH {
		b.curLine = 0
	}
	return r, true
}

// Slice drains a generator into a slice (for tests and offline replay).
func Slice(g Generator) []Request {
	var out []Request
	for {
		r, ok := g.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// LatencyStats summarizes the service latencies of one client.
type LatencyStats struct {
	Count        int
	MeanNs       float64
	P50Ns        float64
	P95Ns        float64
	P99Ns        float64
	MaxNs        float64
	MaxFIFODepth int
}

// Summarize computes the statistics of a latency sample (ns). It sorts
// latencies in place.
func Summarize(latencies []float64, maxFIFO int) LatencyStats {
	s := LatencyStats{Count: len(latencies), MaxFIFODepth: maxFIFO}
	if len(latencies) == 0 {
		return s
	}
	sort.Float64s(latencies)
	sum := 0.0
	for _, v := range latencies {
		sum += v
	}
	s.MeanNs = sum / float64(len(latencies))
	pick := func(q float64) float64 {
		i := int(q * float64(len(latencies)-1))
		return latencies[i]
	}
	s.P50Ns = pick(0.50)
	s.P95Ns = pick(0.95)
	s.P99Ns = pick(0.99)
	s.MaxNs = latencies[len(latencies)-1]
	return s
}

// FIFODepthFor converts a worst-case service latency into the FIFO depth
// a client producing at rateGB with requests of bits needs to avoid
// overflow (paper §3: "minimize the latency for the memory clients and
// thus minimize the necessary FIFO depth").
func FIFODepthFor(maxLatencyNs float64, bits int, rateGB float64) int {
	iv := IntervalNs(bits, rateGB)
	if iv <= 0 || maxLatencyNs <= 0 {
		return 1
	}
	d := int(maxLatencyNs/iv) + 1
	if d < 1 {
		d = 1
	}
	return d
}

// String renders the stats compactly.
func (s LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%.0fns p50=%.0f p95=%.0f p99=%.0f max=%.0f fifo=%d",
		s.Count, s.MeanNs, s.P50Ns, s.P95Ns, s.P99Ns, s.MaxNs, s.MaxFIFODepth)
}

// Alternating emits requests that alternate between two sequential
// regions — a client interleaving fetches from two buffers, e.g. the
// two reference frames of bidirectional motion compensation. Under most
// mappings the two regions occupy different rows of the same banks, so
// strict in-order service thrashes pages while a reordering controller
// can batch each region's run — the workload behind the A2 ablation.
type Alternating struct {
	ClientID int
	BaseA    int64
	BaseB    int64
	Bits     int
	RateGB   float64
	Count    int
	emitted  int
	offA     int64
	offB     int64
}

// Next implements Generator.
func (g *Alternating) Next() (Request, bool) {
	if g.Count > 0 && g.emitted >= g.Count {
		return Request{}, false
	}
	iv := IntervalNs(g.Bits, g.RateGB)
	r := Request{
		Client:  g.ClientID,
		Bits:    g.Bits,
		IssueNs: float64(g.emitted) * iv,
	}
	step := int64(g.Bits / 8)
	if g.emitted%2 == 0 {
		r.AddrB = g.BaseA + g.offA
		g.offA += step
	} else {
		r.AddrB = g.BaseB + g.offB
		g.offB += step
	}
	g.emitted++
	return r, true
}
