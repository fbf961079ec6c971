package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// rank is the 1-based nearest rank of the q-quantile of n values.
func rank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n))), 1)
}

// Durations from histLo to histHi fall into logarithmic buckets histStep
// wide; shorter ones count in the first bucket, longer ones in the last.
const (
	histLo   = time.Microsecond
	histHi   = 100 * time.Second
	histStep = 1.001
)

// histogram counts durations in a fixed amount of memory, so folding
// any number of requests into it allocates nothing.
type histogram struct {
	counts []uint32
	n      int
}

func newHistogram() *histogram {
	k := int(math.Log(float64(histHi)/float64(histLo))/math.Log(histStep)) + 1
	return &histogram{counts: make([]uint32, k)}
}

func (h *histogram) add(d time.Duration) {
	i := 0
	if d > histLo {
		i = min(int(math.Log(float64(d)/float64(histLo))/math.Log(histStep)), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

// quantileMS is the nearest-rank q-quantile in milliseconds (0 when
// empty). Within its bucket the value is interpolated by rank, so it is
// within one bucket width (0.1%) of the exact percentile.
func (h *histogram) quantileMS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := rank(q, h.n)
	seen := 0
	for i, c := range h.counts {
		if seen+int(c) < r {
			seen += int(c)
			continue
		}
		lo := float64(histLo) * math.Pow(histStep, float64(i))
		frac := (float64(r-seen) - 0.5) / float64(c)
		return (lo + frac*lo*(histStep-1)) / 1e6
	}
	return float64(histHi) / 1e6
}

// median is the middle value of xs, the mean of the two middle values
// for an even count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuTime is this process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// mallocs is the cumulative heap allocation count.
func mallocs() uint64 {
	ms := readMem()
	return ms.Mallocs
}

// liveHeap forces a collection and returns the heap bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	ms := readMem()
	return ms.HeapAlloc
}
