package sched

import (
	"math/rand"
	"strings"
	"testing"

	"edram/internal/dram"
	"edram/internal/mapping"
	"edram/internal/power"
	"edram/internal/tech"
	"edram/internal/traffic"
)

func devCfg() dram.Config {
	return dram.Config{
		Banks:       4,
		RowsPerBank: 1024,
		PageBits:    2048, // 256 B pages
		DataBits:    64,
		Timing:      tech.PC100(),
	}
}

func geo() mapping.Geometry {
	return mapping.Geometry{Banks: 4, RowsBank: 1024, PageBytes: 256}
}

func interleaved(t *testing.T) mapping.Mapping {
	t.Helper()
	m, err := mapping.NewBankInterleaved(geo())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func linear(t *testing.T) mapping.Mapping {
	t.Helper()
	m, err := mapping.NewLinear(geo())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func seqClient(id int, name string, startB int64, rate float64, n int) Client {
	return Client{Name: name, Gen: &traffic.Sequential{
		ClientID: id, StartB: startB, Bits: 64, RateGB: rate, Count: n}}
}

func TestRunErrors(t *testing.T) {
	if _, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, nil); err == nil {
		t.Error("no clients must error")
	}
	empty := Client{Name: "empty", Gen: &traffic.Sequential{Bits: 64, RateGB: 1, Count: 0}}
	// Count 0 means unbounded in Sequential, so build a drained one.
	g := &traffic.Sequential{Bits: 64, RateGB: 1, Count: 1}
	g.Next()
	empty.Gen = g
	if _, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{empty}); err == nil {
		t.Error("empty streams must error")
	}
	bad := devCfg()
	bad.Banks = 2 // mismatched mapping
	if _, err := RunWithOptions(bad, interleaved(t), Options{Policy: RoundRobin}, []Client{seqClient(0, "a", 0, 1, 10)}); err == nil {
		t.Error("geometry mismatch must error")
	}
	broken := devCfg()
	broken.Timing.TCKns = 0
	if _, err := RunWithOptions(broken, interleaved(t), Options{Policy: RoundRobin}, []Client{seqClient(0, "a", 0, 1, 10)}); err == nil {
		t.Error("invalid device must error")
	}
}

// TestRunRefusesOversizeRequest: a request wider than the queue
// record's 32-bit size field is an error, not a silently truncated
// transfer.
func TestRunRefusesOversizeRequest(t *testing.T) {
	huge := Client{Name: "huge", Gen: &traffic.Sequential{Bits: 1 << 31, RateGB: 1, Count: 1}}
	_, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{huge})
	if err == nil || !strings.Contains(err.Error(), `client "huge"`) {
		t.Fatalf("err = %v, want a refusal naming the client", err)
	}
}

func TestSingleStreamNearPeak(t *testing.T) {
	// One sequential client demanding more than peak must sustain close
	// to the device peak (page hits dominate).
	res, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin},
		[]Client{seqClient(0, "stream", 0, 10, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	if res.SustainedFraction < 0.80 {
		t.Fatalf("sequential stream sustains only %.0f%% of peak", 100*res.SustainedFraction)
	}
	if res.HitRate < 0.9 {
		t.Errorf("sequential hit rate %.2f too low", res.HitRate)
	}
}

func TestMultiClientBelowPeak(t *testing.T) {
	// Paper §4: several clients introduce page misses, so sustained
	// bandwidth drops well below peak. Three random clients in distinct
	// bank-0-heavy regions under a *linear* mapping thrash pages.
	clients := []Client{
		{Name: "r0", Gen: &traffic.Random{ClientID: 0, StartB: 0, WindowB: 64 << 10, Bits: 64, RateGB: 3, Count: 600, Rng: rand.New(rand.NewSource(1))}},
		{Name: "r1", Gen: &traffic.Random{ClientID: 1, StartB: 64 << 10, WindowB: 64 << 10, Bits: 64, RateGB: 3, Count: 600, Rng: rand.New(rand.NewSource(2))}},
		{Name: "r2", Gen: &traffic.Random{ClientID: 2, StartB: 128 << 10, WindowB: 64 << 10, Bits: 64, RateGB: 3, Count: 600, Rng: rand.New(rand.NewSource(3))}},
	}
	res, err := RunWithOptions(devCfg(), linear(t), Options{Policy: RoundRobin}, clients)
	if err != nil {
		t.Fatal(err)
	}
	if res.SustainedFraction > 0.6 {
		t.Fatalf("random multi-client mix sustains %.0f%%; expected well below peak", 100*res.SustainedFraction)
	}
	if res.HitRate > 0.5 {
		t.Errorf("hit rate %.2f suspiciously high for random mix", res.HitRate)
	}
}

func TestInterleavingBeatsLinearForPageStrides(t *testing.T) {
	// One access per page (stride = page size): under the linear
	// mapping every access opens a new row in the same bank and pays
	// the full tRC; bank interleaving spreads consecutive pages over
	// all banks so activations overlap.
	mk := func() []Client {
		return []Client{{Name: "stride", Gen: &traffic.Strided{
			StrideB: 256, Bits: 64, RateGB: 2, Count: 800}}}
	}
	lin, err := RunWithOptions(devCfg(), linear(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	il, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if il.SustainedGBps <= lin.SustainedGBps {
		t.Fatalf("interleaved (%.2f GB/s) must beat linear (%.2f GB/s)",
			il.SustainedGBps, lin.SustainedGBps)
	}
}

func TestFixedPriorityProtectsClient0(t *testing.T) {
	mk := func() []Client {
		return []Client{
			{Name: "hot", Gen: &traffic.Random{ClientID: 0, WindowB: 256 << 10, Bits: 64, RateGB: 1, Count: 400, Rng: rand.New(rand.NewSource(4))}},
			{Name: "bulk", Gen: &traffic.Random{ClientID: 1, StartB: 256 << 10, WindowB: 256 << 10, Bits: 64, RateGB: 4, Count: 1600, Rng: rand.New(rand.NewSource(5))}},
		}
	}
	rr, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: FixedPriority}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if fp.Clients[0].Stats.P99Ns > rr.Clients[0].Stats.P99Ns {
		t.Errorf("priority must not worsen client 0 p99: %.0f vs %.0f",
			fp.Clients[0].Stats.P99Ns, rr.Clients[0].Stats.P99Ns)
	}
}

func TestOpenPagePolicyRaisesHitRate(t *testing.T) {
	// Two streaming clients: open-page-first batches hits within the
	// open row instead of ping-ponging between clients' rows.
	mk := func() []Client {
		return []Client{
			seqClient(0, "a", 0, 2, 800),
			seqClient(1, "b", 512, 2, 800), // same bank region under linear
		}
	}
	rr, err := RunWithOptions(devCfg(), linear(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	op, err := RunWithOptions(devCfg(), linear(t), Options{Policy: OpenPageFirst}, mk())
	if err != nil {
		t.Fatal(err)
	}
	if op.HitRate < rr.HitRate {
		t.Errorf("open-page policy must not lower hit rate: %.3f vs %.3f", op.HitRate, rr.HitRate)
	}
	if op.SustainedGBps < rr.SustainedGBps {
		t.Errorf("open-page policy must not lower bandwidth: %.2f vs %.2f",
			op.SustainedGBps, rr.SustainedGBps)
	}
}

func TestOldestFirstIsFIFO(t *testing.T) {
	res, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: OldestFirst}, []Client{
		seqClient(0, "a", 0, 1, 300),
		seqClient(1, "b", 1<<20, 1, 300),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].Stats.Count != 300 || res.Clients[1].Stats.Count != 300 {
		t.Error("all requests must be served")
	}
}

func TestResultAccounting(t *testing.T) {
	res, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{seqClient(0, "a", 0, 1, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].BitsMoved != 100*64 {
		t.Errorf("bits moved = %d", res.Clients[0].BitsMoved)
	}
	if res.DurationNs <= 0 || res.SustainedGBps <= 0 {
		t.Error("duration and bandwidth must be positive")
	}
	if res.Device.Accesses() != 100 {
		t.Errorf("device served %d accesses, want 100", res.Device.Accesses())
	}
	if res.MappingName != "bank-interleaved" {
		t.Error("mapping name lost")
	}
	if res.Clients[0].AchievedGBps <= 0 {
		t.Error("achieved bandwidth must be positive")
	}
}

func TestFIFODepthGrowsWithContention(t *testing.T) {
	// A streaming client alone has a shallow FIFO; squeezed by three
	// heavy random clients, its worst-case occupancy grows.
	solo, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{seqClient(0, "v", 0, 1, 500)})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{
		seqClient(0, "v", 0, 1, 500),
		{Name: "n1", Gen: &traffic.Random{ClientID: 1, StartB: 1 << 20, WindowB: 1 << 20, Bits: 512, RateGB: 3, Count: 800, Rng: rand.New(rand.NewSource(8))}},
		{Name: "n2", Gen: &traffic.Random{ClientID: 2, StartB: 2 << 20, WindowB: 1 << 20, Bits: 512, RateGB: 3, Count: 800, Rng: rand.New(rand.NewSource(9))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Clients[0].Stats.MaxFIFODepth < solo.Clients[0].Stats.MaxFIFODepth {
		t.Errorf("contention must not shrink FIFO: %d vs %d",
			noisy.Clients[0].Stats.MaxFIFODepth, solo.Clients[0].Stats.MaxFIFODepth)
	}
	if noisy.Clients[0].Stats.P99Ns <= solo.Clients[0].Stats.P99Ns {
		t.Errorf("contention must raise p99: %.0f vs %.0f",
			noisy.Clients[0].Stats.P99Ns, solo.Clients[0].Stats.P99Ns)
	}
}

func TestPolicyStrings(t *testing.T) {
	for p, want := range map[Policy]string{
		RoundRobin: "round-robin", FixedPriority: "fixed-priority",
		OldestFirst: "oldest-first", OpenPageFirst: "open-page-first",
	} {
		if p.String() != want {
			t.Errorf("%d -> %q", int(p), p.String())
		}
	}
	if !strings.Contains(Policy(9).String(), "9") {
		t.Error("unknown policy must embed number")
	}
}

func TestAllPoliciesServeEverything(t *testing.T) {
	for _, p := range []Policy{RoundRobin, FixedPriority, OldestFirst, OpenPageFirst} {
		res, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: p}, []Client{
			seqClient(0, "a", 0, 1, 200),
			{Name: "r", Gen: &traffic.Random{ClientID: 1, StartB: 1 << 20, WindowB: 1 << 20, Bits: 128, RateGB: 1, Count: 200, Rng: rand.New(rand.NewSource(11))}},
		})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		total := 0
		for _, c := range res.Clients {
			total += c.Stats.Count
		}
		if total != 400 {
			t.Errorf("%v served %d of 400", p, total)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	res, err := RunWithOptions(devCfg(), interleaved(t),
		Options{Policy: RoundRobin, Trace: true},
		[]Client{seqClient(0, "a", 0, 1, 50)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 50 {
		t.Fatalf("trace entries = %d, want 50", len(res.Trace))
	}
	for i, e := range res.Trace {
		if e.Client != "a" || e.DoneNs < e.StartNs || e.StartNs < e.IssueNs-1e-9 {
			t.Fatalf("entry %d inconsistent: %+v", i, e)
		}
	}
	var sb strings.Builder
	if err := res.WriteTraceCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 51 { // header + 50
		t.Errorf("csv lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "client,addr,bank") {
		t.Error("csv header wrong")
	}
	// Without the option, no trace is kept.
	res2, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{seqClient(0, "a", 0, 1, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Error("trace must be nil when not requested")
	}
}

func TestDeadlinePolicyProtectsRealTimeClient(t *testing.T) {
	mk := func() []Client {
		return []Client{
			{Name: "bulk", Gen: &traffic.Random{ClientID: 0, WindowB: 512 << 10, Bits: 64, RateGB: 3, Count: 1200, Rng: rand.New(rand.NewSource(14))}},
			{Name: "rt", LatencyBudgetNs: 200, Gen: &traffic.Sequential{ClientID: 1, StartB: 1 << 20, Bits: 64, RateGB: 0.5, Count: 600}},
		}
	}
	rr, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, mk())
	if err != nil {
		t.Fatal(err)
	}
	dl, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: Deadline}, mk())
	if err != nil {
		t.Fatal(err)
	}
	// The real-time client (index 1) must see better p99 under EDF.
	if dl.Clients[1].Stats.P99Ns > rr.Clients[1].Stats.P99Ns {
		t.Errorf("deadline policy must protect the budgeted client: %.0f vs %.0f",
			dl.Clients[1].Stats.P99Ns, rr.Clients[1].Stats.P99Ns)
	}
	// And still serve everything.
	if dl.Clients[0].Stats.Count != 1200 || dl.Clients[1].Stats.Count != 600 {
		t.Error("deadline policy dropped requests")
	}
	if Deadline.String() != "deadline" {
		t.Error("policy string wrong")
	}
}

func TestResultCoreEnergy(t *testing.T) {
	res, err := RunWithOptions(devCfg(), interleaved(t), Options{Policy: RoundRobin}, []Client{seqClient(0, "a", 0, 1, 200)})
	if err != nil {
		t.Fatal(err)
	}
	ce := power.DefaultCoreEnergy()
	e := res.CoreEnergy(ce, devCfg().PageBits)
	if e.TotalPJ <= 0 || e.PJPerBit <= 0 {
		t.Fatalf("energy must be positive: %+v", e)
	}
	// A thrashing run (random, linear mapping) must cost more pJ/bit.
	thrash, err := RunWithOptions(devCfg(), linear(t), Options{Policy: RoundRobin}, []Client{
		{Name: "r", Gen: &traffic.Random{WindowB: 16 << 20, Bits: 64, RateGB: 1, Count: 200, Rng: rand.New(rand.NewSource(2))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	te := thrash.CoreEnergy(ce, devCfg().PageBits)
	if te.PJPerBit <= e.PJPerBit {
		t.Errorf("thrashing pJ/bit %.1f must exceed streaming %.1f", te.PJPerBit, e.PJPerBit)
	}
}

// Conservation matrix: every policy x option combination serves every
// request exactly once and moves the same number of bits.
func TestConservationMatrix(t *testing.T) {
	mk := func() []Client {
		return []Client{
			seqClient(0, "a", 0, 1.5, 300),
			{Name: "b", LatencyBudgetNs: 400, Gen: &traffic.Strided{ClientID: 1, StartB: 1 << 20, StrideB: 256, LimitB: 1 << 20, Bits: 64, RateGB: 1, Count: 300}},
			{Name: "c", Gen: &traffic.Random{ClientID: 2, StartB: 4 << 20, WindowB: 1 << 20, Bits: 64, RateGB: 1, Count: 300, Rng: rand.New(rand.NewSource(77))}},
		}
	}
	wantBits := int64(900 * 64)
	for _, pol := range []Policy{RoundRobin, FixedPriority, OldestFirst, OpenPageFirst, Deadline} {
		for _, closed := range []bool{false, true} {
			for _, win := range []int{1, 4} {
				opt := Options{Policy: pol, ClosedPage: closed, ReorderWindow: win}
				res, err := RunWithOptions(devCfg(), interleaved(t), opt, mk())
				if err != nil {
					t.Fatalf("%v/%v/%d: %v", pol, closed, win, err)
				}
				var bits int64
				total := 0
				for _, c := range res.Clients {
					bits += c.BitsMoved
					total += c.Stats.Count
				}
				if bits != wantBits || total != 900 {
					t.Fatalf("%v/closed=%v/win=%d: served %d requests, %d bits",
						pol, closed, win, total, bits)
				}
			}
		}
	}
}
