package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyondTail is how many samples must lie above a percentile before it
// may be reported as the tail: a tail drawn from fewer samples is mostly
// one or two outliers and does not repeat from run to run.
const minBeyondTail = 10

// tailPercentiles are the tail candidates, highest first. A run reports the
// highest one it has enough samples for; p99.9 is left out because a GC
// pause or scheduler hiccup alone decides it.
var tailPercentiles = []float64{0.99, 0.90}

// rank returns the 1-based nearest-rank index of percentile p in n sorted
// samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(p, len(sorted))-1]
}

// tail picks the highest of tailPercentiles that has at least
// minBeyondTail samples strictly beyond its rank and returns it with its
// value. Too few samples is an error, never a silent median: a run that
// cannot support a tail must hold more ops.
func tail(sorted []float64) (p, v float64, err error) {
	n := len(sorted)
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= minBeyondTail {
			return p, percentile(sorted, p), nil
		}
	}
	low := tailPercentiles[len(tailPercentiles)-1]
	need := n + 1
	for need-rank(low, need) < minBeyondTail {
		need++
	}
	return 0, 0, fmt.Errorf("%d samples support no tail: p%g needs at least %d", n, low*100, need)
}

// median returns the median of xs (mean of the middle two for even n); xs
// is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loopResult is what one run of a fixed op count measured.
type loopResult struct {
	// lat holds the latency in milliseconds of every op that succeeded, in
	// op order. A failed op has no latency to report; it counts in failed,
	// and the run is reported incorrect.
	lat       []float64
	attempted int
	failed    int
	errs      []error // the first few failures, for the report
	wall      time.Duration
}

// add accounts one op.
func (lr *loopResult) add(i int, ms float64, err error) {
	lr.attempted++
	if err == nil {
		lr.lat = append(lr.lat, ms)
		return
	}
	lr.failed++
	if len(lr.errs) < maxKeptErrs {
		lr.errs = append(lr.errs, fmt.Errorf("op %d: %w", i, err))
	}
}

// maxKeptErrs bounds the failures kept for the report.
const maxKeptErrs = 5

// closedLoop runs exactly n ops over the given number of clients. Each
// client takes the next op index and issues it only after its previous op
// returned, as callers that wait for a verdict do. op returns an error when
// the call fails or its output fails its check.
func closedLoop(n, clients int, op func(client, i int) error) loopResult {
	lat := make([]float64, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t0 := time.Now()
				errs[i] = op(c, i)
				lat[i] = msSince(t0)
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{wall: time.Since(start)}
	for i := range lat {
		res.add(i, lat[i], errs[i])
	}
	return res
}

// latencySummary is the median and tail of a run's op latencies.
type latencySummary struct {
	p50, tail, tailPct float64
}

func summarize(lat []float64) (latencySummary, error) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	p, v, err := tail(s)
	if err != nil {
		return latencySummary{}, err
	}
	return latencySummary{p50: percentile(s, 0.5), tail: v, tailPct: p}, nil
}

// procSample is a point-in-time reading of the process counters a run
// differences: bytes allocated, GC cycles and CPU time.
type procSample struct {
	alloc uint64
	gcs   uint32
	cpu   time.Duration
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{alloc: ms.TotalAlloc, gcs: ms.NumGC, cpu: processCPU()}
}

// processCPU returns the user plus system CPU time of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB returns the live heap in MB. It collects twice: sync.Pool
// contents survive the first collection as victims, and whether a pool
// was refilled just before is timing, not retained memory.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// alternate runs rounds pairs of one untraced and one traced op, swapping
// which goes first each round so drift in the host's speed falls on both
// sides alike. Both ops of a round get the same input, picked by the
// round; i numbers the op. Each op returns its own latency in
// milliseconds. It returns both sides' latencies and the accounting for
// all ops.
func alternate(rounds int, untraced, traced func(round, i int) (float64, error)) (u, t []float64, lr loopResult) {
	for r := 0; r < rounds; r++ {
		for k := 0; k < 2; k++ {
			i := lr.attempted
			if (r+k)%2 == 1 {
				ms, err := traced(r, i)
				if err == nil {
					t = append(t, ms)
				}
				lr.add(i, ms, err)
			} else {
				ms, err := untraced(r, i)
				if err == nil {
					u = append(u, ms)
				}
				lr.add(i, ms, err)
			}
		}
	}
	return u, t, lr
}

// procLayers returns the per-op process metrics of a traced run and its
// tracing overhead: the traced ops' median latency over the untraced ops'.
func procLayers(p0, p1 procSample, ops int, untraced, traced []float64) map[string]float64 {
	return map[string]float64{
		"process.cpu_ms":       float64(p1.cpu-p0.cpu) / 1e6 / float64(ops),
		"process.gc_cycles":    float64(p1.gcs-p0.gcs) / float64(ops),
		"trace.overhead_ratio": median(traced) / median(untraced),
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
