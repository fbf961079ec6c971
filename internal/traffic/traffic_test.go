package traffic

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntervalNs(t *testing.T) {
	// 64 bits = 8 bytes at 1 GB/s => 8 ns between requests.
	if got := IntervalNs(64, 1); math.Abs(got-8) > 1e-9 {
		t.Errorf("interval = %v, want 8", got)
	}
	if IntervalNs(0, 1) != 0 || IntervalNs(64, 0) != 0 {
		t.Error("degenerate inputs must yield 0")
	}
}

func TestSequential(t *testing.T) {
	g := &Sequential{ClientID: 3, StartB: 1000, Bits: 64, RateGB: 1, Count: 5}
	reqs := Slice(g)
	if len(reqs) != 5 {
		t.Fatalf("got %d requests", len(reqs))
	}
	for i, r := range reqs {
		if r.Client != 3 {
			t.Error("client id lost")
		}
		if r.AddrB != 1000+int64(i*8) {
			t.Errorf("req %d addr %d", i, r.AddrB)
		}
		if math.Abs(r.IssueNs-float64(i)*8) > 1e-9 {
			t.Errorf("req %d issue %v", i, r.IssueNs)
		}
	}
}

func TestSequentialWrap(t *testing.T) {
	g := &Sequential{StartB: 0, LimitB: 16, Bits: 64, RateGB: 1, Count: 4}
	reqs := Slice(g)
	want := []int64{0, 8, 0, 8}
	for i, r := range reqs {
		if r.AddrB != want[i] {
			t.Errorf("req %d addr %d, want %d", i, r.AddrB, want[i])
		}
	}
}

func TestStrided(t *testing.T) {
	g := &Strided{StartB: 0, StrideB: 100, LimitB: 250, Bits: 32, RateGB: 1, Count: 4}
	reqs := Slice(g)
	want := []int64{0, 100, 200, 50} // 300 % 250 = 50
	for i, r := range reqs {
		if r.AddrB != want[i] {
			t.Errorf("req %d addr %d, want %d", i, r.AddrB, want[i])
		}
	}
}

func TestRandomDeterministicAndBounded(t *testing.T) {
	mk := func() []Request {
		return Slice(&Random{WindowB: 4096, Bits: 64, RateGB: 1, Count: 100,
			Rng: rand.New(rand.NewSource(7))})
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the stream")
		}
		if a[i].AddrB < 0 || a[i].AddrB >= 4096 {
			t.Fatalf("addr %d out of window", a[i].AddrB)
		}
		if a[i].AddrB%8 != 0 {
			t.Fatalf("addr %d not aligned to request size", a[i].AddrB)
		}
	}
	// Default RNG kicks in when none is given.
	c := Slice(&Random{WindowB: 4096, Bits: 64, RateGB: 1, Count: 3})
	if len(c) != 3 {
		t.Error("default-rng stream broken")
	}
}

func TestBlock2D(t *testing.T) {
	g := &Block2D{
		BaseB: 0, PitchB: 720, Lines: 576,
		BlockW: 16, BlockH: 4, RateGB: 1, Blocks: 10,
		Rng: rand.New(rand.NewSource(1)),
	}
	reqs := Slice(g)
	if len(reqs) != 40 {
		t.Fatalf("10 blocks x 4 lines = 40 requests, got %d", len(reqs))
	}
	// Within one block, consecutive requests step by exactly one pitch.
	for b := 0; b < 10; b++ {
		for l := 1; l < 4; l++ {
			prev, cur := reqs[b*4+l-1], reqs[b*4+l]
			if cur.AddrB-prev.AddrB != 720 {
				t.Fatalf("block %d line %d: step %d, want pitch 720", b, l, cur.AddrB-prev.AddrB)
			}
		}
	}
	// Every request carries the block width.
	for _, r := range reqs {
		if r.Bits != 16*8 {
			t.Fatalf("request bits = %d", r.Bits)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(nil, 3)
	if s.Count != 0 || s.MaxFIFODepth != 3 {
		t.Error("empty summary wrong")
	}
	lats := []float64{60, 20, 100, 40, 50, 10, 70, 80, 90, 30}
	s = Summarize(lats, 7)
	if s.Count != 10 || s.MaxNs != 100 {
		t.Error("count/max wrong")
	}
	if math.Abs(s.MeanNs-55) > 1e-9 {
		t.Errorf("mean = %v", s.MeanNs)
	}
	if s.P50Ns != 50 || s.P99Ns != 90 {
		t.Errorf("p50=%v p99=%v", s.P50Ns, s.P99Ns)
	}
	if !strings.Contains(s.String(), "fifo=7") {
		t.Error("String must include fifo depth")
	}
	// Summarize sorts the input in place.
	if !sort.Float64sAreSorted(lats) {
		t.Errorf("input left unsorted: %v", lats)
	}
}

func TestFIFODepthFor(t *testing.T) {
	// 8-byte requests at 1 GB/s arrive every 8 ns; 100 ns of worst-case
	// latency needs 13 slots.
	if d := FIFODepthFor(100, 64, 1); d != 13 {
		t.Errorf("depth = %d, want 13", d)
	}
	if FIFODepthFor(0, 64, 1) != 1 || FIFODepthFor(100, 0, 1) != 1 {
		t.Error("degenerate cases must yield 1")
	}
	// Higher latency, deeper FIFO.
	if FIFODepthFor(1000, 64, 1) <= FIFODepthFor(100, 64, 1) {
		t.Error("depth must grow with latency")
	}
}

// Property: percentiles are ordered p50 <= p95 <= p99 <= max.
func TestSummarizeOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		lats := make([]float64, len(raw))
		for i, v := range raw {
			lats[i] = float64(v)
		}
		s := Summarize(lats, 0)
		return s.P50Ns <= s.P95Ns && s.P95Ns <= s.P99Ns && s.P99Ns <= s.MaxNs && s.MeanNs <= s.MaxNs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: sequential streams have monotone issue times and addresses
// within a wrap window.
func TestSequentialMonotoneProperty(t *testing.T) {
	f := func(bitsRaw, rateRaw uint8) bool {
		bits := 8 * (int(bitsRaw%64) + 1)
		rate := float64(rateRaw%40)/10 + 0.1
		g := &Sequential{Bits: bits, RateGB: rate, Count: 50}
		reqs := Slice(g)
		for i := 1; i < len(reqs); i++ {
			if reqs[i].IssueNs < reqs[i-1].IssueNs {
				return false
			}
			if reqs[i].AddrB != reqs[i-1].AddrB+int64(bits/8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlternating(t *testing.T) {
	g := &Alternating{BaseA: 0, BaseB: 1 << 20, Bits: 64, RateGB: 1, Count: 6}
	reqs := Slice(g)
	if len(reqs) != 6 {
		t.Fatalf("got %d requests", len(reqs))
	}
	wantAddrs := []int64{0, 1 << 20, 8, 1<<20 + 8, 16, 1<<20 + 16}
	for i, r := range reqs {
		if r.AddrB != wantAddrs[i] {
			t.Errorf("req %d addr %d, want %d", i, r.AddrB, wantAddrs[i])
		}
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].IssueNs < reqs[i-1].IssueNs {
			t.Fatal("issue times must be monotone")
		}
	}
}
