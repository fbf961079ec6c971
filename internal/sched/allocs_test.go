package sched

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"edram/internal/traffic"
)

// The arbitration helpers run once (or once per client) per served
// request; they read the client's ring by absolute request index and
// RunWithOptions reuses one candidate scratch slice across picks
// precisely so these paths stay allocation-free. The guards pin that
// at zero.

var (
	sinkIdx  int
	sinkOK   bool
	sinkInts []int
)

// testState is a client whose ring holds n requests, three quarters
// of them arrived. The queue starts at request n/2 so indices wrap
// round the ring.
func testState(n int) clientState {
	st := clientState{ring: make([]queued, n), next: n / 2}
	st.arrived = st.next + n*3/4
	return st
}

func TestHeadNoAllocs(t *testing.T) {
	st := testState(64)
	if n := testing.AllocsPerRun(1000, func() {
		sinkIdx, sinkOK = st.head()
	}); n != 0 {
		t.Fatalf("head allocates %v allocs/op, want 0", n)
	}
	if !sinkOK {
		t.Fatal("head found no arrived request")
	}
}

func TestAppendCandidatesReusedScratchNoAllocs(t *testing.T) {
	st := testState(64)
	for i := st.next + 1; i < st.arrived; i += 3 { // holes make the scan walk
		st.at(i).done = true
	}
	scratch := make([]int, 0, 8)
	if n := testing.AllocsPerRun(1000, func() {
		scratch = st.appendCandidates(scratch[:0], 8)
		sinkInts = scratch
	}); n != 0 {
		t.Fatalf("appendCandidates with reused scratch allocates %v allocs/op, want 0", n)
	}
	if len(sinkInts) != 8 {
		t.Fatalf("expected a full window of 8 candidates, got %d", len(sinkInts))
	}
}

func TestMarkServedNoAllocs(t *testing.T) {
	st := testState(4096)
	st.arrived = st.next + len(st.ring)
	idx := st.next
	if n := testing.AllocsPerRun(1000, func() {
		st.markServed(idx)
		idx++
	}); n != 0 {
		t.Fatalf("markServed allocates %v allocs/op, want 0", n)
	}
	if st.next != idx {
		t.Fatalf("markServed left next=%d after serving prefix of %d", st.next, idx)
	}
}

// TestRunAllocBudget: a backlogged run allocates for the requests its
// queues hold, not for the whole streams. Three clients of 1500
// requests each demand more than the device serves, so their FIFOs
// back up to about 200 requests; the run measures about 150 KB,
// most of it the latency samples. Draining every stream into a
// slice before serving it measures about 600 KB.
func TestRunAllocBudget(t *testing.T) {
	const budget = 176 << 10
	clients := func() []Client {
		cs := make([]Client, 3)
		for i := range cs {
			cs[i] = Client{Name: fmt.Sprintf("c%d", i), Gen: &traffic.Sequential{
				ClientID: i, StartB: int64(i) << 20, Bits: 64, RateGB: 0.3, Count: 1500}}
		}
		return cs
	}
	m := interleaved(t)
	best := uint64(math.MaxUint64)
	for range 3 {
		cs := clients()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := RunWithOptions(devCfg(), m, Options{Policy: OldestFirst}, cs)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if d := res.Clients[0].Stats.MaxFIFODepth; d <= minQueue {
			t.Fatalf("FIFO depth %d: the run is not backlogged", d)
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > budget {
		t.Fatalf("a backlogged 3×1500-request run allocates %d B, budget %d B", best, budget)
	}
}
