package main

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{n: 100, wantPct: 0.90, wantVal: 90},   // exactly 10 beyond p90
		{n: 999, wantPct: 0.90, wantVal: 900},  // 9 beyond p99: not enough
		{n: 1000, wantPct: 0.99, wantVal: 990}, // exactly 10 beyond p99
		{n: 50000, wantPct: 0.99, wantVal: 49500},
	} {
		p, v, err := tail(ramp(tc.n))
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if p != tc.wantPct || v != tc.wantVal {
			t.Errorf("n=%d: tail p%g = %g, want p%g = %g", tc.n, p*100, v, tc.wantPct*100, tc.wantVal)
		}
		if beyond := tc.n - rank(p, tc.n); beyond < minBeyondTail {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, p*100)
		}
	}
}

func TestTailTooFewSamplesIsAnError(t *testing.T) {
	for _, n := range []int{1, 10, 50, 99} {
		_, _, err := tail(ramp(n))
		if err == nil {
			t.Fatalf("n=%d: want an error, got a tail", n)
		}
		if !strings.Contains(err.Error(), "100") {
			t.Errorf("n=%d: error %q does not say how many samples p90 needs", n, err)
		}
	}
	// summarize must surface the error rather than report the median as
	// the tail.
	if _, err := summarize(ramp(20)); err == nil {
		t.Fatal("summarize of 20 samples returned a tail")
	}
}

func TestSummarizeIgnoresOrder(t *testing.T) {
	xs := ramp(200)
	rev := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(rev)))
	a, err := summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := summarize(rev)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a.p50 != 100 || a.tail != 180 || a.tailPct != 0.90 {
		t.Fatalf("summaries %+v and %+v, want p50 100 and p90 180", a, b)
	}
}

func TestClosedLoopRunsExactlyNOps(t *testing.T) {
	for _, clients := range []int{1, 2, 7} {
		const n = 1000
		var mu sync.Mutex
		seen := make([]int, n)
		lr := closedLoop(n, clients, func(c, i int) error {
			if c < 0 || c >= clients {
				t.Errorf("client %d out of range", c)
			}
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if lr.attempted != n || len(lr.lat) != n || lr.failed != 0 {
			t.Fatalf("clients=%d: %d attempted, %d latencies, %d failed; want %d, %d and 0", clients, lr.attempted, len(lr.lat), lr.failed, n, n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("clients=%d: op %d ran %d times", clients, i, c)
			}
		}
	}
}

func TestClosedLoopCountsFailures(t *testing.T) {
	const n = 100
	lr := closedLoop(n, 2, func(_, i int) error {
		if i%9 == 3 {
			return errors.New("wrong verdict")
		}
		return nil
	})
	if lr.attempted != n || lr.failed != 11 || len(lr.lat) != n-11 {
		t.Fatalf("%d attempted, %d failed, %d latencies; want %d, 11, %d", lr.attempted, lr.failed, len(lr.lat), n, n-11)
	}
	if len(lr.errs) != maxKeptErrs || !strings.HasPrefix(lr.errs[0].Error(), "op 3: ") {
		t.Fatalf("kept errors %v, want the first %d, naming their ops", lr.errs, maxKeptErrs)
	}
}

func TestAlternateBalancesAndCounts(t *testing.T) {
	var order []string
	rounds := map[string][]int{}
	op := func(side string, fail bool) func(r, i int) (float64, error) {
		return func(r, i int) (float64, error) {
			order = append(order, side)
			rounds[side] = append(rounds[side], r)
			if fail {
				return 1, errors.New("check failed")
			}
			return 1, nil
		}
	}
	u, tr, lr := alternate(4, op("u", false), op("t", true))
	if got := strings.Join(order, ""); got != "uttuuttu" {
		t.Fatalf("order %s, want uttuuttu: the first side must swap every round", got)
	}
	if len(u) != 4 || len(tr) != 0 || lr.attempted != 8 || lr.failed != 4 {
		t.Fatalf("%d untraced, %d traced latencies, %d attempted, %d failed; want 4, 0, 8, 4", len(u), len(tr), lr.attempted, lr.failed)
	}
	for k := range rounds["u"] {
		if rounds["u"][k] != rounds["t"][k] {
			t.Fatalf("round inputs differ: untraced %v, traced %v", rounds["u"], rounds["t"])
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestDeriveIsDeterministicAndDistinct(t *testing.T) {
	if derive(1, "tune", "db", 0) != derive(1, "tune", "db", 0) {
		t.Fatal("derive is not deterministic")
	}
	seen := map[int64]bool{}
	for _, seed := range []int64{1, 2} {
		for _, part := range []string{"db", "model", "collect"} {
			for k := 0; k < 4; k++ {
				v := derive(seed, "tune", part, k)
				if v <= 0 || seen[v] {
					t.Fatalf("derive(%d, tune, %s, %d) = %d: not positive or repeated", seed, part, k, v)
				}
				seen[v] = true
			}
		}
	}
}
