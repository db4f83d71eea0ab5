package tuner

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/engine/opt"
	"repro/internal/engine/stats"
	"repro/internal/race"
	"repro/internal/util"
	"repro/internal/workload"
)

// TestColdTuneWorkloadAllocBudget pins the bytes a cold workload tune
// allocates: a fresh optimizer and what-if cache, as a tune job gets,
// searching all 22 TPC-H queries serially. Every probe that misses the
// what-if cache pays one join search over memoized access paths; a cache
// layer that stores more than it saves shows up here first. The what-if
// call ceiling pins incremental workload costing: a greedy step that
// re-plans queries the added index cannot touch goes over it.
func TestColdTuneWorkloadAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation totals are not stable under -race (sync.Pool drops Puts)")
	}
	w := workload.TPCH("alloc-tunew", 5000, 7)
	ds := stats.BuildDatabaseStats(w.DB, util.NewRNG(4), stats.DefaultSampleSize, stats.DefaultBuckets)
	whatIf := opt.NewWhatIf(opt.New(w.Schema, ds))
	tn := New(w.Schema, whatIf, nil, Options{Parallelism: 1})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := tn.TuneWorkload(context.Background(), w.Queries, nil); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	calls, _ := whatIf.Stats()
	t.Logf("allocated %.1f MB, %d what-if calls", mb, calls)

	const budgetMB = 16
	if mb > budgetMB {
		t.Fatalf("cold TuneWorkload allocated %.1f MB, budget %d MB", mb, budgetMB)
	}
	const maxCalls = 3600
	if calls > maxCalls {
		t.Fatalf("cold TuneWorkload made %d what-if calls, ceiling %d", calls, maxCalls)
	}
}
