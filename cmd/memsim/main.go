// Command memsim runs a multi-client memory-system simulation on an
// embedded DRAM macro: it builds the macro, attaches a latency-sensitive
// streaming client plus a configurable number of random bulk clients,
// and reports sustained bandwidth, page-hit rate, per-client latency
// percentiles and required FIFO depths for the chosen mapping and
// arbitration policy.
//
// With -faults the run injects a seeded manufacturing defect map,
// retention-time tail and transient soft errors, protects the interface
// with the selected -ecc scheme, and reports the reliability ladder's
// counters (corrections, retries, spare-row remaps, offlined pages).
//
// Usage:
//
//	memsim -capacity 16 -iface 64 -banks 4 -mapping interleaved -policy open-page -clients 3
//	memsim -faults 4 -ecc secded -soft-errors 2000 -seed 7
//	memsim -scenario examples/scenarios/mpeg2-pal-decoder.json
//
// -scenario simulates the target level of a declarative scenario file
// (see internal/scenario): the document's pinned macro geometry,
// arbitration policy and client allocation replace the corresponding
// flags, through the same loader as edramd and edramx.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"edram/internal/edram"
	"edram/internal/mapping"
	"edram/internal/profiling"
	"edram/internal/reliab"
	"edram/internal/report"
	"edram/internal/scenario"
	"edram/internal/sched"
	"edram/internal/traffic"
)

// traceW is the streaming trace sink; fail flushes it so early errors
// don't lose the rows already observed.
var traceW *bufio.Writer

func main() {
	capacity := flag.Int("capacity", 16, "macro capacity in Mbit")
	iface := flag.Int("iface", 64, "interface width in bits")
	banks := flag.Int("banks", 4, "bank count")
	page := flag.Int("page", 2048, "page length in bits")
	mapName := flag.String("mapping", "interleaved", "address mapping: linear or interleaved")
	polName := flag.String("policy", "round-robin", "arbitration: round-robin, priority, oldest, open-page")
	nClients := flag.Int("clients", 3, "number of random bulk clients (plus one stream client)")
	rate := flag.Float64("rate", 0.6, "per-client demand in GB/s")
	requests := flag.Int("requests", 1500, "requests per client")
	seed := flag.Int64("seed", 42, "random seed (traffic and fault injection)")
	closedPage := flag.Bool("closedpage", false, "auto-precharge after every request")
	reorder := flag.Int("window", 1, "FR-FCFS reorder window (open-page policy only)")
	tracePath := flag.String("trace", "", "stream a per-request CSV trace to this file (\"-\" = stderr)")
	faults := flag.Float64("faults", 0, "inject faults: mean manufacturing defects per bank (0 = fault-free)")
	eccName := flag.String("ecc", "", "ECC scheme: none, parity, secded, chipkill (default secded when -faults is set; requires -faults)")
	softErrs := flag.Float64("soft-errors", 0, "transient bit flips per million accesses (requires -faults)")
	spares := flag.Int("spares", 4, "spare rows per bank for runtime repair (with -faults)")
	weakCells := flag.Float64("weak-cells", 8, "mean retention-tail weak cells per bank (with -faults)")
	scenFile := flag.String("scenario", "", "simulate a declarative scenario file's target level (overrides the geometry, policy and client flags)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// Flag validation, before any profile starts, so a usage error
	// leaves no profile file behind. The traffic generators read a
	// count below 1 as an unbounded stream, which a simulation never
	// finishes; the client count splits the address space; the
	// reliability knobs only mean something once the fault process is
	// armed.
	if *requests < 1 {
		usageFail(fmt.Errorf("-requests: count must be positive, got %d (unbounded streams are not served)", *requests))
	}
	if *nClients < 0 {
		usageFail(fmt.Errorf("-clients must be non-negative, got %d", *nClients))
	}
	if *faults < 0 {
		usageFail(fmt.Errorf("-faults must be non-negative, got %g", *faults))
	}
	if *faults == 0 {
		if *eccName != "" {
			usageFail(fmt.Errorf("-ecc %q requires -faults (an ECC needs a fault process to act on)", *eccName))
		}
		if *softErrs != 0 {
			usageFail(fmt.Errorf("-soft-errors requires -faults"))
		}
	}
	ecc := reliab.ECCSECDED // default protection once faults are armed
	if *eccName != "" {
		var err error
		if ecc, err = reliab.ParseECC(*eccName); err != nil {
			usageFail(err)
		}
	}

	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	stopProfile = stop
	defer func() {
		if err := endProfile(); err != nil {
			fail(err)
		}
	}()

	// A scenario file overrides the geometry, policy and client flags:
	// the document's target level (its pinned spec plus its allocated
	// clients) is what gets simulated, through the same loader — and so
	// with the same error messages — as edramd and edramx.
	var scnLevel *scenario.CompiledLevel
	var scnCompiled *scenario.Compiled
	if *scenFile != "" {
		scn, err := scenario.Load(*scenFile)
		if err != nil {
			fail(err)
		}
		scnCompiled, err = scn.Compile()
		if err != nil {
			fail(err)
		}
		scnLevel, err = scnCompiled.TargetLevel()
		if err != nil {
			fail(err)
		}
		if len(scnLevel.Clients) == 0 {
			fail(fmt.Errorf("scenario level %q has no clients to simulate", scnLevel.Name))
		}
	}

	spec := edram.Spec{
		CapacityMbit: *capacity, InterfaceBits: *iface, Banks: *banks, PageBits: *page,
	}
	if scnLevel != nil {
		spec = scnLevel.Spec
	}
	if *faults > 0 {
		spec.ECC = ecc
		spec.Redundancy = edram.RedundancyStd
	}
	m, err := edram.Build(spec)
	if err != nil {
		fail(err)
	}
	cfg := m.DeviceConfig()
	gm := mapping.Geometry{Banks: cfg.Banks, RowsBank: cfg.RowsPerBank, PageBytes: cfg.PageBits / 8}

	var mp mapping.Mapping
	switch *mapName {
	case "linear":
		mp, err = mapping.NewLinear(gm)
	case "interleaved":
		mp, err = mapping.NewBankInterleaved(gm)
	default:
		usageFail(fmt.Errorf("unknown mapping %q", *mapName))
	}
	if err != nil {
		fail(err)
	}

	// The policy vocabulary is scenario.ParsePolicy's — the same names
	// (and the same error message) the scenario documents and the
	// service accept. The historical short aliases keep working because
	// ParsePolicy accepts both spellings.
	pol, err := scenario.ParsePolicy(*polName)
	if err != nil {
		usageFail(err)
	}

	var clients []sched.Client
	closed, window := *closedPage, *reorder
	if scnLevel != nil {
		pol = scnCompiled.Policy
		closed = scnCompiled.ClosedPage
		window = scnCompiled.ReorderWindow
		for i, c := range scnLevel.Clients {
			clients = append(clients, sched.Client{
				Name:            c.Name,
				Gen:             c.Generator(i, m.Geometry.InterfaceBits),
				LatencyBudgetNs: c.LatencyBudgetNs,
			})
		}
	} else {
		clients = []sched.Client{{Name: "stream", Gen: &traffic.Sequential{
			ClientID: 0, Bits: *iface, RateGB: *rate, Count: *requests}}}
		span := int64(*capacity) << 20 / 8 / int64(*nClients+1)
		for i := 0; i < *nClients; i++ {
			clients = append(clients, sched.Client{
				Name: fmt.Sprintf("rand-%d", i),
				Gen: &traffic.Random{
					ClientID: i + 1, StartB: span * int64(i+1), WindowB: span,
					Bits: *iface, RateGB: *rate, Count: *requests,
					Rng: rand.New(rand.NewSource(*seed + int64(i))),
				},
			})
		}
	}

	// The per-event Observer streams the request-level trace while the
	// simulation runs, instead of buffering it in Result.Trace; "-"
	// dumps to stderr alongside the progress of long runs.
	opt := sched.Options{Policy: pol, ClosedPage: closed, ReorderWindow: window}
	traced := 0
	if *tracePath != "" {
		var dst *os.File
		if *tracePath == "-" {
			dst = os.Stderr
		} else {
			f, err := os.Create(*tracePath)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			dst = f
		}
		traceW = bufio.NewWriter(dst)
		if _, err := traceW.WriteString("client,addr,bank,row,write,issue_ns,start_ns,done_ns,hit\n"); err != nil {
			fail(err)
		}
		opt.Observer = func(e sched.TraceEntry) {
			traced++
			fmt.Fprintf(traceW, "%s,%d,%d,%d,%t,%.1f,%.1f,%.1f,%t\n",
				e.Client, e.AddrB, e.Bank, e.Row, e.Write, e.IssueNs, e.StartNs, e.DoneNs, e.Hit)
		}
	}
	if *faults > 0 {
		opt.Reliability = &reliab.Config{
			Seed:                 *seed,
			ECC:                  ecc,
			MeanDefectsPerBank:   *faults,
			RetentionTailPerBank: *weakCells,
			SoftErrorsPerMAccess: *softErrs,
			SpareRowsPerBank:     *spares,
		}
		// Runtime error events stream to stderr as they happen — the
		// reliability counterpart of the -trace observer.
		opt.FaultObserver = func(ev reliab.FaultEvent) {
			fmt.Fprintf(os.Stderr, "fault @%.1fns client=%s bank=%d row=%d hard=%d soft=%d attempts=%d -> %s\n",
				ev.TimeNs, ev.Client, ev.Bank, ev.Row, ev.HardBits, ev.SoftBits, ev.Attempts, ev.Outcome)
		}
	}
	res, err := sched.RunWithOptions(cfg, mp, opt, clients)
	if err != nil {
		fail(err)
	}
	if traceW != nil {
		if err := traceW.Flush(); err != nil {
			fail(err)
		}
		if *tracePath != "-" {
			fmt.Fprintf(os.Stderr, "trace: %d requests -> %s\n", traced, *tracePath)
		}
	}

	fmt.Print(m.Datasheet())
	fmt.Printf("\nsimulation: %s mapping, %s policy, %d clients\n",
		res.MappingName, res.Policy, len(res.Clients))
	fmt.Printf("  peak       %.2f GB/s\n", res.PeakGBps)
	fmt.Printf("  sustained  %.2f GB/s (%.0f%% of peak)\n", res.SustainedGBps, 100*res.SustainedFraction)
	fmt.Printf("  hit rate   %.2f\n", res.HitRate)
	fmt.Printf("  makespan   %.2f us\n\n", res.DurationNs/1e3)

	t := report.New("per-client service", "client", "req", "mean ns", "p99 ns", "max ns", "fifo", "GB/s")
	for i, c := range res.Clients {
		clientRate := *rate
		if scnLevel != nil {
			clientRate = scnLevel.Clients[i].RateGBps
		}
		depth := traffic.FIFODepthFor(c.Stats.MaxNs, m.Geometry.InterfaceBits, clientRate)
		t.AddRow(c.Name, c.Stats.Count, c.Stats.MeanNs, c.Stats.P99Ns, c.Stats.MaxNs, depth, c.AchievedGBps)
	}
	if err := t.Render(os.Stdout); err != nil {
		fail(err)
	}

	if rs := res.Reliability; rs != nil {
		fmt.Printf("\nreliability: %s ECC, seed %d, defect map %016x\n", ecc, *seed, rs.DefectFingerprint)
		fmt.Printf("  injected   %d faults, %d weak cells\n", rs.InjectedFaults, rs.WeakCells)
		fmt.Printf("  faulty acc %d of %d (corrected %d, retry-recovered %d, silent %d, miscorrected %d, uncorrected %d)\n",
			rs.FaultyAccesses, res.Device.Accesses(), rs.Corrected, rs.RetryRecovered, rs.Silent, rs.Miscorrected, rs.Uncorrected)
		fmt.Printf("  repair     %d retries, %d scrubs, %d/%d spares used, %d rows offlined (%.3f%% capacity lost)\n",
			rs.Retries, rs.Scrubs, rs.SparesUsed, rs.SparesTotal, rs.OfflinedRows, 100*rs.CapacityLossFrac)
		fmt.Printf("  overhead   decode %.1f ns, retry %.1f ns, scrub %.1f ns stolen\n",
			rs.DecodeNs, rs.RetryNs, rs.ScrubNs)
		const maxOffline = 8
		for i, p := range res.Offlined {
			if i == maxOffline {
				fmt.Printf("  offline    ... and %d more\n", len(res.Offlined)-maxOffline)
				break
			}
			fmt.Printf("  offline    bank %d row %d\n", p[0], p[1])
		}
	}
}

// stopProfile ends the -cpuprofile/-memprofile profiles; nil until
// they start, and again once they are stopped.
var stopProfile func() error

// endProfile stops the profiles once. fail and usageFail call it
// because os.Exit skips main's deferred stop, which would leave a
// truncated CPU profile and no heap profile behind.
func endProfile() error {
	stop := stopProfile
	stopProfile = nil
	if stop == nil {
		return nil
	}
	return stop()
}

// fail reports a runtime error, flushing any streaming trace and
// stopping the profiles first so partial traces and the profiles
// survive early exits.
func fail(err error) {
	if traceW != nil {
		traceW.Flush()
	}
	if perr := endProfile(); perr != nil {
		fmt.Fprintln(os.Stderr, "memsim:", perr)
	}
	fmt.Fprintln(os.Stderr, "memsim:", err)
	os.Exit(1)
}

// usageFail reports an invalid flag combination with the usage text and
// a distinct exit code.
func usageFail(err error) {
	if perr := endProfile(); perr != nil {
		fmt.Fprintln(os.Stderr, "memsim:", perr)
	}
	fmt.Fprintln(os.Stderr, "memsim:", err)
	flag.Usage()
	os.Exit(2)
}
