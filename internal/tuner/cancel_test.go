package tuner

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/plan"
	"repro/internal/engine/query"
)

// TestTuneQueryHonoursCancellation covers the context plumbing: a
// pre-cancelled context must abort the search before any probing, and a
// context cancelled mid-search must surface context.Canceled rather than a
// partial recommendation.
func TestTuneQueryHonoursCancellation(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tn.TuneQuery(ctx, e.w.Query("q6"), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TuneQuery err = %v", err)
	}
	if _, err := tn.TuneWorkload(ctx, e.w.Queries, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled TuneWorkload err = %v", err)
	}

	// A nil context still works (legacy call sites default to Background).
	var nilCtx context.Context
	if _, err := tn.TuneQuery(nilCtx, e.w.Query("q6"), nil); err != nil {
		t.Fatalf("nil-context TuneQuery: %v", err)
	}
}

// TestTuneWorkloadDeterministicUnderContext guards against the cancellation
// checks perturbing the search: with a live context the result must match
// the no-cancellation baseline exactly.
func TestTuneWorkloadDeterministicUnderContext(t *testing.T) {
	e := newEnv(t)
	qs := e.w.Queries[:4]
	base, err := New(e.w.Schema, e.whatIf, nil, Options{Parallelism: 1}).TuneWorkload(context.Background(), qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := New(e.w.Schema, e.whatIf, nil, Options{Parallelism: 4}).TuneWorkload(ctx, qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.NewIndexes) != len(base.NewIndexes) || got.EstCost != base.EstCost {
		t.Fatalf("context/parallelism changed the result: %v vs %v", got.NewIndexes, base.NewIndexes)
	}
	for i := range got.NewIndexes {
		if got.NewIndexes[i].ID() != base.NewIndexes[i].ID() {
			t.Fatalf("index %d differs: %s vs %s", i, got.NewIndexes[i].ID(), base.NewIndexes[i].ID())
		}
	}
}

// TestWorkloadCostCancelledWithNoAffectedQuery covers the incremental
// costing's cancellation path: a probe whose index sits on a table no query
// references re-plans nothing, yet a cancelled context must still surface
// ctx.Err() and no cost.
func TestWorkloadCostCancelledWithNoAffectedQuery(t *testing.T) {
	e := newEnv(t)
	tn := New(e.w.Schema, e.whatIf, nil, Options{Parallelism: 1})
	qs := []*query.Query{e.w.Query("q6")} // lineitem only
	c0 := catalog.NewConfiguration()
	p0, err := tn.WhatIf.Plan(qs[0], c0)
	if err != nil {
		t.Fatal(err)
	}
	initPlans := []*plan.Plan{p0}
	base, err := tn.workloadCost(context.Background(), qs, initPlans, nil, nil, c0)
	if err != nil || base == nil {
		t.Fatalf("initial cost: state %v, err %v", base, err)
	}
	ix := &catalog.Index{Table: "region", KeyColumns: []string{"r_name"}}
	cfg := c0.Clone().Add(ix)

	// Live context: the untouched query reuses its plan and the cost holds.
	callsBefore, _ := tn.WhatIf.Stats()
	st, err := tn.workloadCost(context.Background(), qs, initPlans, base, ix, cfg)
	if err != nil || st == nil || st.cost != base.cost {
		t.Fatalf("unaffected probe: state %v, err %v, base cost %v", st, err, base.cost)
	}
	if calls, _ := tn.WhatIf.Stats(); calls != callsBefore {
		t.Fatalf("unaffected probe made %d what-if calls", calls-callsBefore)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err = tn.workloadCost(ctx, qs, initPlans, base, ix, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled unaffected probe err = %v", err)
	}
	if st != nil {
		t.Fatalf("cancelled probe reported a cost: %v", st.cost)
	}
}
