package opt

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine/catalog"
	"repro/internal/engine/cost"
	"repro/internal/engine/query"
	"repro/internal/engine/stats"
	"repro/internal/util"
)

// memoQueries returns a query/config mix covering every access-path shape:
// heap scan, covering index scan, seek, seek+lookup+filter, columnstore,
// joins (shared tables across queries), and a parallel-eligible plan.
func memoSuite() ([]*query.Query, []*catalog.Configuration) {
	qs := []*query.Query{
		pointQuery(),
		joinQuery(),
		{
			Name:   "range",
			Tables: []string{"fact"},
			Preds: []query.Pred{
				{Table: "fact", Column: "f_date", Lo: 0, Hi: 1000},
				{Table: "fact", Column: "f_val", Lo: 1, Hi: 50},
			},
			Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
		},
		{
			Name:    "wide",
			Tables:  []string{"fact"},
			Preds:   []query.Pred{{Table: "fact", Column: "f_date", Lo: 0, Hi: 3650}},
			GroupBy: []query.ColRef{{Table: "fact", Column: "f_dim"}},
			Aggs:    []query.Agg{{Func: query.Sum, Col: query.ColRef{Table: "fact", Column: "f_val"}}},
		},
	}
	cfgs := []*catalog.Configuration{
		nil,
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", KeyColumns: []string{"f_date"}, IncludedColumns: []string{"f_val"}}),
		catalog.NewConfiguration(
			&catalog.Index{Table: "fact", KeyColumns: []string{"f_dim"}, IncludedColumns: []string{"f_val"}},
			&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}}),
		catalog.NewConfiguration(&catalog.Index{Table: "fact", Kind: catalog.Columnstore}),
	}
	return qs, cfgs
}

// TestPathMemoPlansIdenticalToCold pins the core property: a warm memo must
// reproduce the cold optimizer's plans bit for bit — same shape, same
// estimates — including parallel plans rebuilt through cloneRecost.
func TestPathMemoPlansIdenticalToCold(t *testing.T) {
	s, _, ds := buildEnv(t)
	qs, cfgs := memoSuite()
	warm := New(s, ds)
	// Two passes over the full suite: the second pass hits the memo for
	// every table.
	var cold []string
	var coldCost []float64
	for pass := 0; pass < 2; pass++ {
		i := 0
		for _, q := range qs {
			for _, cfg := range cfgs {
				p, err := warm.Optimize(q, cfg)
				if err != nil {
					t.Fatalf("pass %d q %s: %v", pass, q.Name, err)
				}
				if pass == 0 {
					cold = append(cold, p.String())
					coldCost = append(coldCost, p.EstTotalCost)
				} else {
					if p.String() != cold[i] {
						t.Fatalf("warm plan differs for %s:\n%s\nvs cold:\n%s", q.Name, p.String(), cold[i])
					}
					if math.Float64bits(p.EstTotalCost) != math.Float64bits(coldCost[i]) {
						t.Fatalf("warm cost differs for %s: %x vs %x", q.Name, p.EstTotalCost, coldCost[i])
					}
				}
				i++
			}
		}
	}
	hits, misses, entries := warm.PathMemoStats()
	if hits == 0 {
		t.Fatal("second pass should hit the memo")
	}
	if misses == 0 || entries == 0 {
		t.Fatalf("unexpected memo stats: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

// TestPathMemoHitRate checks that configurations differing in one index on
// one table do not re-plan unrelated tables: after warming with the base
// config, planning the join query under a dim-only index change must hit
// for fact.
func TestPathMemoHitRate(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	q := joinQuery()
	if _, err := o.Optimize(q, nil); err != nil {
		t.Fatal(err)
	}
	h0, _, _ := o.PathMemoStats()
	cfg := catalog.NewConfiguration(&catalog.Index{Table: "dim", KeyColumns: []string{"d_cat"}})
	if _, err := o.Optimize(q, cfg); err != nil {
		t.Fatal(err)
	}
	h1, _, _ := o.PathMemoStats()
	if h1 != h0+1 {
		t.Fatalf("changing only dim's indexes should hit the memo for fact: hits %d -> %d", h0, h1)
	}
}

// TestJoinMemoStatsCountsJoinSearches: the compatibility accessor reports no
// hits and no entries, and one miss per plan of a multi-table query, so a
// hit ratio computed from it is 0 rather than 0/0.
func TestJoinMemoStatsCountsJoinSearches(t *testing.T) {
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	for _, q := range []*query.Query{pointQuery(), joinQuery(), joinQuery()} {
		if _, err := o.Optimize(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	if h, m, e := o.JoinMemoStats(); h != 0 || m != 2 || e != 0 {
		t.Fatalf("JoinMemoStats = (%d, %d, %d), want (0, 2, 0)", h, m, e)
	}
}

// TestPathMemoInvalidation: swapping Stats or Model must flush the memo so
// stale access paths cannot leak across generations.
func TestPathMemoInvalidation(t *testing.T) {
	s, db, ds := buildEnv(t)
	o := New(s, ds)
	q := pointQuery()
	for i := 0; i < 2; i++ {
		if _, err := o.Optimize(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	hits, _, entries := o.PathMemoStats()
	if hits == 0 || entries == 0 {
		t.Fatalf("memo should be warm: hits=%d entries=%d", hits, entries)
	}

	// New stats object (different sampling) → different estimates allowed;
	// memo must flush rather than serve the old generation's paths.
	ds2 := stats.BuildDatabaseStats(db, util.NewRNG(1234), 256, 16)
	o.Stats = ds2
	p2, err := o.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, entries = o.PathMemoStats()
	if entries != 1 {
		t.Fatalf("stats swap should flush the memo, got %d entries", entries)
	}
	fresh := New(s, ds2)
	pf, err := fresh.Optimize(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2.String() != pf.String() || math.Float64bits(p2.EstTotalCost) != math.Float64bits(pf.EstTotalCost) {
		t.Fatal("post-swap plan must match a fresh optimizer's plan")
	}

	// Model swap invalidates too.
	o.Model = cost.OptimizerModel()
	if _, err := o.Optimize(q, nil); err != nil {
		t.Fatal(err)
	}
	_, _, entries = o.PathMemoStats()
	if entries != 1 {
		t.Fatalf("model swap should flush the memo, got %d entries", entries)
	}

	// In-place mutation is the caller's responsibility: InvalidatePathMemo.
	o.InvalidatePathMemo()
	_, _, entries = o.PathMemoStats()
	if entries != 0 {
		t.Fatalf("InvalidatePathMemo should empty the memo, got %d entries", entries)
	}
}

// TestPathMemoBounded drives more distinct keys than the cap and checks the
// memo never exceeds it.
func TestPathMemoBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("generates >8k plans")
	}
	s, _, ds := buildEnv(t)
	o := New(s, ds)
	for i := 0; i < maxPathMemoEntries+50; i++ {
		q := &query.Query{
			Name:   fmt.Sprintf("b%d", i),
			Tables: []string{"fact"},
			Preds:  []query.Pred{{Table: "fact", Column: "f_date", Lo: int64(i), Hi: int64(i + 1)}},
			Select: []query.ColRef{{Table: "fact", Column: "f_id"}},
		}
		if _, err := o.Optimize(q, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, entries := o.PathMemoStats()
	if entries > maxPathMemoEntries {
		t.Fatalf("memo exceeded its bound: %d > %d", entries, maxPathMemoEntries)
	}
	if entries != maxPathMemoEntries {
		t.Fatalf("memo should sit at its bound after overflow, got %d", entries)
	}
}
