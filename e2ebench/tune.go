package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/aimai"
	"repro/internal/candidates"
	"repro/internal/engine/opt"
	"repro/internal/engine/plan"
	"repro/internal/engine/stats"
	"repro/internal/expdata"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/tuner"
	"repro/internal/util"
	"repro/internal/workload"
)

// tuneCold is a closed loop with one client. Each op is a cold workload
// tune, as a tuning job gets it: a fresh optimizer, a fresh what-if cache
// and a classifier-gated tuner at default parallelism, then TuneWorkload
// over all 22 TPC-H queries. Cold planning, the path and join memos,
// inference and greedy bookkeeping do nearly all the work.
//
// The run sets up tuneDBs databases from the seed and cycles ops over
// them, so its median is taken over several data sets and does not rest
// on one database's search path.
type tuneCold struct {
	dbs []*tuneDB
}

const (
	tuneDBs          = 4
	tuneLineitemRows = 5000
)

// tuneDB is one database with its classifier and the serial reference
// recommendation every op must reproduce.
type tuneDB struct {
	w     *workload.Workload
	stats *stats.DatabaseStats
	clf   *models.Classifier

	refIDs   []string
	refCost  float64
	initCost float64
}

func (b *tuneCold) setup(e *env) ([]time.Duration, error) {
	var durs []time.Duration
	for k := 0; k < tuneDBs; k++ {
		t0 := time.Now()
		db, err := newTuneDB(e.seed, k)
		if err != nil {
			return nil, err
		}
		// Warm-up: one untimed op per database.
		if err := db.tuneAndCheck(); err != nil {
			return nil, fmt.Errorf("warm-up on db %d: %w", k, err)
		}
		durs = append(durs, time.Since(t0))
		b.dbs = append(b.dbs, db)
	}
	return durs, nil
}

// newTuneDB builds database k of a run: data, statistics, collected
// execution data, the reference classifier (aimai.TrainClassifier
// defaults), and the serial reference recommendation.
func newTuneDB(seed int64, k int) (*tuneDB, error) {
	w := workload.TPCH(fmt.Sprintf("tpch-%d", k), tuneLineitemRows, derive(seed, "tune", "db", k))
	db := &tuneDB{
		w:     w,
		stats: stats.BuildDatabaseStats(w.DB, util.NewRNG(derive(seed, "tune", "stats", k)), stats.DefaultSampleSize, stats.DefaultBuckets),
	}
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: derive(seed, "tune", "collect", k)})
	if err != nil {
		return nil, err
	}
	pairs := ds.Pairs(60, util.NewRNG(derive(seed, "tune", "pairs", k)))
	if db.clf, err = aimai.TrainClassifier(pairs, aimai.ClassifierOptions{Seed: derive(seed, "tune", "model", k)}); err != nil {
		return nil, err
	}
	ref, _, err := db.tune(db.clf, 1)
	if err != nil {
		return nil, fmt.Errorf("serial reference tune: %w", err)
	}
	db.refIDs, db.refCost = indexIDs(ref), ref.EstCost
	wi := opt.NewWhatIf(opt.New(w.Schema, db.stats))
	for _, q := range w.Queries {
		p, err := wi.Plan(q, nil)
		if err != nil {
			return nil, err
		}
		weight := q.Weight
		if weight <= 0 {
			weight = 1
		}
		db.initCost += weight * p.EstTotalCost
	}
	return db, nil
}

// tune runs one cold workload tune; parallelism 0 is the tuner's default.
func (db *tuneDB) tune(cmp models.Comparator, parallelism int) (*tuner.WorkloadRecommendation, *opt.WhatIf, error) {
	wi := opt.NewWhatIf(opt.New(db.w.Schema, db.stats))
	tn := tuner.New(db.w.Schema, wi, cmp, tuner.Options{Parallelism: parallelism})
	rec, err := tn.TuneWorkload(context.Background(), db.w.Queries, nil)
	return rec, wi, err
}

// check compares a recommendation with the serial reference: the same
// indexes and the same estimated cost, bit for bit.
func (db *tuneDB) check(rec *tuner.WorkloadRecommendation, err error) error {
	if err != nil {
		return err
	}
	ids := indexIDs(rec)
	if fmt.Sprint(ids) != fmt.Sprint(db.refIDs) || rec.EstCost != db.refCost {
		return fmt.Errorf("recommendation %v at cost %v, serial reference %v at cost %v", ids, rec.EstCost, db.refIDs, db.refCost)
	}
	return nil
}

func indexIDs(rec *tuner.WorkloadRecommendation) []string {
	ids := make([]string, len(rec.NewIndexes))
	for i, ix := range rec.NewIndexes {
		ids[i] = ix.ID()
	}
	return ids
}

func (b *tuneCold) op(_, i int) error {
	return b.dbs[i%len(b.dbs)].tuneAndCheck()
}

// tuneAndCheck runs one op: a default-parallelism tune, checked.
func (db *tuneDB) tuneAndCheck() error {
	rec, _, err := db.tune(db.clf, 0)
	return db.check(rec, err)
}

func (b *tuneCold) close() {}

// timedComparator wraps the classifier to time every call the tuner makes
// into the models layer.
type timedComparator struct {
	inner    models.BatchComparator
	tr       *tracer
	op, root int

	mu    sync.Mutex
	pairs int
	// batches counts CompareBatch calls; single Compare calls count
	// only as pairs.
	batches int
}

func (c *timedComparator) Compare(p1, p2 *plan.Plan) expdata.Label {
	id := c.tr.begin("models.compare", c.op, c.root)
	v := c.inner.Compare(p1, p2)
	c.tr.end(id)
	c.count(1, 0)
	return v
}

func (c *timedComparator) CompareBatch(pairs []models.PlanPair, out []expdata.Label) []expdata.Label {
	id := c.tr.begin("models.compare", c.op, c.root)
	out = c.inner.CompareBatch(pairs, out)
	c.tr.end(id)
	c.count(len(pairs), 1)
	return out
}

func (c *timedComparator) count(pairs, batches int) {
	c.mu.Lock()
	c.pairs += pairs
	c.batches += batches
	c.mu.Unlock()
}

// trace alternates untraced and traced ops, both with a serial tuner
// (Parallelism 1): on one worker the layers' times add up to the op's
// wall time, which they cannot do while two workers overlap. The what-if
// planning time is the program's own probe-latency histogram, read around
// each traced op; candidate generation, which the tuner calls internally,
// is replayed on the op's queries after the op.
func (b *tuneCold) trace(n int, tr *tracer) (map[string]float64, loopResult, error) {
	var sum struct {
		plan, compare, cands, self, indexes, pairs, batches float64
		probes, hits, pathHits, pathAll, joinHits, joinAll  float64
	}
	untraced := func(round, _ int) (float64, error) {
		db := b.dbs[round%len(b.dbs)]
		t0 := time.Now()
		rec, _, err := db.tune(db.clf, 1)
		ms := msSince(t0)
		return ms, db.check(rec, err)
	}
	traced := func(round, i int) (float64, error) {
		db := b.dbs[round%len(b.dbs)]
		cmp := &timedComparator{inner: db.clf, tr: tr, op: i}
		obs.SetEnabled(true)
		before := probeSeconds()
		t0 := time.Now()
		cmp.root = tr.begin("tune", i, 0)
		rec, wi, err := db.tune(cmp, 1)
		tr.end(cmp.root)
		ms := msSince(t0)
		planMS := (probeSeconds() - before) * 1e3
		obs.SetEnabled(false)
		if err := db.check(rec, err); err != nil {
			return ms, err
		}
		cid := tr.begin("candidates.replay", i, 0)
		for _, q := range db.w.Queries {
			sum.indexes += float64(len(candidates.Generate(q, db.w.Schema, candidates.Limits{})))
		}
		tr.end(cid)
		var compareMS, candsMS float64
		for _, s := range tr.snapshot() {
			switch {
			case s.Op != i:
			case s.Name == "models.compare":
				compareMS += float64(s.dur()) / 1e6
			case s.Name == "candidates.replay":
				candsMS += float64(s.dur()) / 1e6
			}
		}
		calls, hits := wi.Stats()
		ph, pm, _ := wi.Opt.PathMemoStats()
		jh, jm, _ := wi.Opt.JoinMemoStats()
		sum.plan += planMS
		sum.compare += compareMS
		sum.cands += candsMS
		sum.self += ms - planMS - compareMS - candsMS
		sum.probes += float64(calls)
		sum.hits += float64(hits)
		sum.pathHits += float64(ph)
		sum.pathAll += float64(ph + pm)
		sum.joinHits += float64(jh)
		sum.joinAll += float64(jh + jm)
		sum.pairs += float64(cmp.pairs)
		sum.batches += float64(cmp.batches)
		return ms, nil
	}
	p0 := readProc()
	u, t, lr := alternate(n/2, untraced, traced)
	p1 := readProc()
	nt := float64(len(t))
	var ratio float64
	for _, db := range b.dbs {
		ratio += db.refCost / db.initCost
	}
	out := procLayers(p0, p1, lr.attempted, u, t)
	for k, v := range map[string]float64{
		"opt.plan_ms":             sum.plan / nt,
		"opt.probes":              sum.probes / nt,
		"opt.whatif_hit_ratio":    sum.hits / sum.probes,
		"opt.path_memo_hit_ratio": sum.pathHits / sum.pathAll,
		"opt.join_memo_hit_ratio": sum.joinHits / sum.joinAll,
		"models.compare_ms":       sum.compare / nt,
		"models.compare_pairs":    sum.pairs / nt,
		"models.compare_batches":  sum.batches / nt,
		"candidates.ms":           sum.cands / nt,
		"candidates.indexes":      sum.indexes / nt,
		"tuner.self_ms":           sum.self / nt,
		"tune.est_cost_ratio":     ratio / float64(len(b.dbs)),
	} {
		out[k] = v
	}
	return out, lr, nil
}

// probeSeconds reads the program's what-if probe-latency histogram: the
// seconds spent optimizing on cache misses.
func probeSeconds() float64 {
	return obs.TakeSnapshot().Histograms["whatif.probe.latency"].Sum
}
