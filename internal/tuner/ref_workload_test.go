package tuner

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/util"
	"repro/internal/workload"
)

// This file freezes a reference implementation of the workload-level
// greedy search — the same discipline as the optimizer's ref_opt_test.go.
// refWorkloadCost re-plans and re-gates every query of the workload for
// every probe, with no state carried between greedy steps. The live
// TuneWorkload costs each probe incrementally (only the queries the added
// index can touch) and must match this reference exactly: the same
// recommended indexes in the same order, the same EstCost bits and the
// same gate-counter deltas.

// refWorkloadCost is the full re-cost: plan every query under cfg, gate
// every plan against its initial plan in query order (stopping at the
// first regression), and sum the weighted costs in query order.
func refWorkloadCost(ctx context.Context, t *Tuner, qs []*query.Query, initPlans []*plan.Plan, cfg *catalog.Configuration) (float64, bool, error) {
	plans := make([]*plan.Plan, len(qs))
	errs := make([]error, len(qs))
	t.parallelFor(len(qs), func(i int) {
		if errs[i] = ctx.Err(); errs[i] != nil {
			return
		}
		plans[i], errs[i] = t.WhatIf.Plan(qs[i], cfg)
	})
	var verdicts []expdata.Label
	if t.Cmp != nil && !anyErr(errs) {
		if bc, ok := t.Cmp.(models.BatchComparator); ok && len(qs) >= 2 {
			pairs := make([]models.PlanPair, len(qs))
			for i := range qs {
				pairs[i] = models.PlanPair{P1: initPlans[i], P2: plans[i]}
			}
			verdicts = bc.CompareBatch(pairs, nil)
		}
	}
	var total float64
	for i, q := range qs {
		if errs[i] != nil {
			return 0, false, errs[i]
		}
		var accepted bool
		if verdicts != nil {
			accepted = gateVerdict(verdicts[i])
		} else {
			accepted = t.acceptNoRegression(initPlans[i], plans[i])
		}
		if !accepted {
			return 0, false, nil
		}
		w := q.Weight
		if w <= 0 {
			w = 1
		}
		total += w * plans[i].EstTotalCost
	}
	return total, true, nil
}

// refTuneWorkload is TuneWorkload with phase (b) costed by
// refWorkloadCost. Phase (a) is the shared query-level search.
func refTuneWorkload(ctx context.Context, t *Tuner, qs []*query.Query, c0 *catalog.Configuration) (*WorkloadRecommendation, error) {
	if c0 == nil {
		c0 = catalog.NewConfiguration()
	}
	if t.Opts.Compress {
		qs = CompressWorkload(qs)
	}
	initPlans := make([]*plan.Plan, len(qs))
	for i, q := range qs {
		p, err := t.WhatIf.Plan(q, c0)
		if err != nil {
			return nil, err
		}
		initPlans[i] = p
	}
	poolSet := map[string]bool{}
	var pool []*catalog.Index
	for _, q := range qs {
		rec, err := t.TuneQuery(ctx, q, c0)
		if err != nil {
			return nil, err
		}
		for _, ix := range rec.NewIndexes {
			if !poolSet[ix.ID()] {
				poolSet[ix.ID()] = true
				pool = append(pool, ix)
			}
		}
	}
	cur := c0
	curCost, ok, err := refWorkloadCost(ctx, t, qs, initPlans, c0)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("reference: initial configuration rejected by its own gate")
	}
	baseCost := curCost
	for len(cur.Diff(c0)) < t.Opts.MaxNewIndexes {
		var stepCfg *catalog.Configuration
		stepCost := curCost
		for _, ix := range pool {
			if cur.Has(ix) {
				continue
			}
			cfg := cur.Clone().Add(ix)
			if !t.allowedByBudget(c0, cfg) {
				continue
			}
			cost, ok, err := refWorkloadCost(ctx, t, qs, initPlans, cfg)
			if err != nil {
				return nil, err
			}
			if ok && cost < stepCost {
				stepCfg, stepCost = cfg, cost
			}
		}
		if stepCfg == nil {
			break
		}
		cur, curCost = stepCfg, stepCost
	}
	if t.Opts.MinEstImprovement > 0 {
		if 1-curCost/math.Max(1e-9, baseCost) < t.Opts.MinEstImprovement {
			cur, curCost = c0, baseCost
		}
	}
	return &WorkloadRecommendation{Config: cur, NewIndexes: cur.Diff(c0), EstCost: curCost}, nil
}

// gateCounts snapshots the gate counters.
func gateCounts() [3]int64 {
	return [3]int64{mGateRegression.Value(), mGateImprove.Value(), mGateUnsure.Value()}
}

func gateDelta(before, after [3]int64) [3]int64 {
	return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
}

// trainForest fits a small random-forest comparator on execution data
// collected from w.
func trainForest(t *testing.T, w *workload.Workload) *models.Classifier {
	t.Helper()
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: 3, MaxConfigsPerQuery: 4, ExecRepeats: 1, StatsSampleSize: 256, StatsBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	clf := models.NewClassifier(feat.Default(), models.RF(25, 7), expdata.DefaultAlpha)
	if err := clf.Train(ds.Pairs(20, util.NewRNG(5))); err != nil {
		t.Fatal(err)
	}
	return clf
}

// TestTuneWorkloadMatchesFullRecost pins the incremental workload costing
// against the full re-cost reference across workloads, comparators,
// parallelism, a non-empty initial configuration and the budgets.
func TestTuneWorkloadMatchesFullRecost(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	tpch := workload.TPCH("tpch-ref-wl", 2000, 9)
	comp := workload.Composite("composite-ref-wl", 3000, 11)
	tpchForest := trainForest(t, tpch)
	compForest := trainForest(t, comp)

	// A non-empty initial configuration: one index each on the two largest
	// TPC-H tables, so the tuner starts from a partially indexed state.
	tpchC0 := catalog.NewConfiguration().
		Add(&catalog.Index{Table: "lineitem", KeyColumns: []string{"l_shipdate"}}).
		Add(&catalog.Index{Table: "orders", KeyColumns: []string{"o_orderdate"}})

	cases := []struct {
		name string
		w    *workload.Workload
		cmp  models.Comparator
		c0   *catalog.Configuration
		opts Options
	}{
		{name: "tpch/nil/p1", w: tpch, opts: Options{Parallelism: 1}},
		{name: "tpch/nil/p4", w: tpch, opts: Options{Parallelism: 4}},
		{name: "tpch/forest/p1", w: tpch, cmp: tpchForest, opts: Options{Parallelism: 1}},
		{name: "tpch/forest/p4", w: tpch, cmp: tpchForest, opts: Options{Parallelism: 4}},
		{name: "tpch/forest-serial/p1", w: tpch, cmp: serialOnly{c: tpchForest}, opts: Options{Parallelism: 1}},
		{name: "tpch/baseline/p4", w: tpch, cmp: models.NewOptimizerBaseline(0), opts: Options{Parallelism: 4}},
		{name: "tpch/forest/c0", w: tpch, cmp: tpchForest, c0: tpchC0, opts: Options{Parallelism: 1}},
		{name: "tpch/nil/c0/p4", w: tpch, c0: tpchC0, opts: Options{Parallelism: 4}},
		{name: "tpch/forest/budgets", w: tpch, cmp: tpchForest,
			opts: Options{Parallelism: 4, StorageBudget: 400_000, MaxIndexesPerTable: 1}},
		{name: "composite/nil/p1", w: comp, opts: Options{Parallelism: 1}},
		{name: "composite/forest/p4", w: comp, cmp: compForest, opts: Options{Parallelism: 4}},
		{name: "composite/forest/budgets", w: comp, cmp: compForest,
			opts: Options{Parallelism: 1, StorageBudget: 300_000, MaxIndexesPerTable: 1, MaxNewIndexes: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Fresh what-if facades: neither search reads plans the other
			// cached.
			ds := stats.BuildDatabaseStats(tc.w.DB, util.NewRNG(4), 512, 32)
			ref := New(tc.w.Schema, opt.NewWhatIf(opt.New(tc.w.Schema, ds)), tc.cmp, tc.opts)
			live := New(tc.w.Schema, opt.NewWhatIf(opt.New(tc.w.Schema, ds)), tc.cmp, tc.opts)

			g0 := gateCounts()
			want, err := refTuneWorkload(context.Background(), ref, tc.w.Queries, tc.c0)
			if err != nil {
				t.Fatal(err)
			}
			g1 := gateCounts()
			got, err := live.TuneWorkload(context.Background(), tc.w.Queries, tc.c0)
			if err != nil {
				t.Fatal(err)
			}
			g2 := gateCounts()

			if len(got.NewIndexes) != len(want.NewIndexes) {
				t.Fatalf("indexes: got %v, want %v", got.NewIndexes, want.NewIndexes)
			}
			for i := range want.NewIndexes {
				if got.NewIndexes[i].ID() != want.NewIndexes[i].ID() {
					t.Fatalf("index %d: got %s, want %s", i, got.NewIndexes[i].ID(), want.NewIndexes[i].ID())
				}
			}
			if math.Float64bits(got.EstCost) != math.Float64bits(want.EstCost) {
				t.Fatalf("EstCost: got %x, want %x", math.Float64bits(got.EstCost), math.Float64bits(want.EstCost))
			}
			if dw, dg := gateDelta(g0, g1), gateDelta(g1, g2); dw != dg {
				t.Fatalf("gate counters (regression, improvement, unsure): got %v, want %v", dg, dw)
			}
			refCalls, _ := ref.WhatIf.Stats()
			liveCalls, _ := live.WhatIf.Stats()
			t.Logf("indexes %d, gate %v, what-if calls %d -> %d", len(got.NewIndexes), gateDelta(g1, g2), refCalls, liveCalls)
			if liveCalls > refCalls {
				t.Fatalf("incremental costing made more what-if calls than the full re-cost: %d > %d",
					liveCalls, refCalls)
			}
		})
	}
}
