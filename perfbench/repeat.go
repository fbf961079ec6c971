package main

// Repeat mode: run one workload N times, each in a fresh process with
// the next seed, and print every metric's median, quartiles and spread
// (q3 − q1 over the median, as Python's statistics.quantiles(n=4)
// gives them) beside the bound BENCHMARK.json fixes for it. It is how
// the bounds were set and how to re-check them.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// benchBounds reads the end-to-end bounds from BENCHMARK.json in the
// checkout root, if it is there.
func benchBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

func repeatRuns(ctx context.Context, o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var failShares []string
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.CommandContext(ctx, self, "--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", trace)
		// On cancellation the child gets an interrupt, so it drains its
		// daemon and removes its directories before it exits.
		cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
		cmd.WaitDelay = time.Minute
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var last []byte
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = append(last[:0], sc.Bytes()...)
		}
		var res result
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		failShares = append(failShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(os.Stderr, "perfbench: repeat %d/%d seed %d done\n", i+1, n, seed)
	}
	bounds := benchBounds()
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s, %d runs, seeds %d..%d, %d s each, failed/attempted %v\n",
		o.workload, n, o.seed, o.seed+int64(n)-1, o.seconds, failShares)
	fmt.Printf("%-32s %-7s %12s %12s %12s %8s %7s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.3f", b)
		}
		fmt.Printf("%-32s %-7s %12.5g %12.5g %12.5g %8.4f %7s\n", name, units[name], q1, q2, q3, spread, bound)
	}
	return nil
}
