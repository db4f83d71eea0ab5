package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/learn"
	"repro/internal/models"
	"repro/internal/server/registry"
	"repro/internal/workload"
)

// learnCycle is a closed loop with one client. Each op is one learning
// cycle from raw telemetry to a promoted blob: import the JSONL exported
// during set-up, open a fresh on-disk registry seeded with a stale champion,
// and run a default-option cycle (drift mode z, 60 trees). Forest training,
// featurization, shadow evaluation and registry promotion do the work;
// there is no HTTP and no planning.
//
// Like tune-cold, the run builds learnSets telemetry sets from the seed
// and cycles ops over them.
type learnCycle struct {
	sets []*learnSet
	dir  string
	regs atomic.Int64 // names each op's fresh registry directory
}

const learnSets = 5

// learnSet is one telemetry export with its stale champion and the blob
// every cycle on it must promote.
type learnSet struct {
	raw      []byte
	champion []byte
	seed     int64
	blob     []byte
}

func (b *learnCycle) setup(e *env) ([]time.Duration, error) {
	b.dir = e.dir
	var durs []time.Duration
	for k := 0; k < learnSets; k++ {
		t0 := time.Now()
		set, err := newLearnSet(e.seed, k)
		if err != nil {
			return nil, err
		}
		// Warm-up: the first cycle fixes the blob later ops must match.
		out, err := b.cycle(set, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up on set %d: %w", k, err)
		}
		set.blob = out.blob
		durs = append(durs, time.Since(t0))
		b.sets = append(b.sets, set)
	}
	return durs, nil
}

// newLearnSet builds telemetry set k: a TPC-H database and its collected
// execution data exported as JSONL, and a stale champion for the
// challenger to replace. The champion is 3 trees trained on the first
// eighth of the records with every label rotated (improvement as
// regression, regression as unsure, unsure as improvement), so its
// verdicts are wrong by construction and every cycle ends in a promotion
// whatever the seed: a champion trained on true labels sometimes beats the
// challenger, and the cycle then stops before promotion.
func newLearnSet(seed int64, k int) (*learnSet, error) {
	w := workload.TPCH(fmt.Sprintf("tpch-%d", k), tuneLineitemRows, derive(seed, "learn", "db", k))
	ds, err := expdata.Collect(w, expdata.CollectOpts{Seed: derive(seed, "learn", "collect", k)})
	if err != nil {
		return nil, err
	}
	var raw bytes.Buffer
	if err := expdata.ExportTelemetry(&raw, ds, feat.DefaultChannels()); err != nil {
		return nil, err
	}
	recs, err := expdata.ImportTelemetry(bytes.NewReader(raw.Bytes()))
	if err != nil {
		return nil, err
	}
	X, y, _, err := expdata.TelemetryPairs(recs[:len(recs)/8], feat.Default(), expdata.DefaultAlpha, 60)
	if err != nil {
		return nil, err
	}
	for i := range y {
		y[i] = (y[i] + 1) % expdata.NumLabels
	}
	stale := models.NewClassifier(feat.Default(), models.RF(3, derive(seed, "learn", "champion", k)), expdata.DefaultAlpha)
	if err := stale.TrainVectors(X, y); err != nil {
		return nil, err
	}
	var champ bytes.Buffer
	if err := models.SaveClassifier(stale, &champ); err != nil {
		return nil, err
	}
	return &learnSet{raw: raw.Bytes(), champion: champ.Bytes(), seed: derive(seed, "learn", "loop", k)}, nil
}

// cycleOut is what one op produced.
type cycleOut struct {
	rep  *learn.CycleReport
	blob []byte
}

// cycle runs one op on set. With a tracer it records the op's spans.
func (b *learnCycle) cycle(set *learnSet, tr *tracer, op int) (*cycleOut, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("registry-%d", b.regs.Add(1)))
	defer os.RemoveAll(dir)
	root := tr.begin("learn.op", op, 0)
	defer tr.end(root)

	id := tr.begin("telemetry.import", op, root)
	recs, err := expdata.ImportTelemetry(bytes.NewReader(set.raw))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("registry.seed", op, root)
	reg, err := registry.Open(dir)
	if err == nil {
		_, err = reg.AddAndActivate(set.champion)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	loop := learn.NewLoop(reg, func() ([]expdata.PlanRecord, int64) { return recs, int64(len(recs)) }, 0, learn.Options{Seed: set.seed})
	defer loop.Stop()
	id = tr.begin("learn.cycle", op, root)
	rep, err := loop.RunCycle(context.Background(), "benchmark")
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if rep.Decision != learn.DecisionPromoted {
		return nil, fmt.Errorf("cycle decided %q (%s), want %q", rep.Decision, rep.Reason, learn.DecisionPromoted)
	}
	blob, err := os.ReadFile(reg.Active().Path)
	if err != nil {
		return nil, err
	}
	if set.blob != nil && !bytes.Equal(blob, set.blob) {
		return nil, fmt.Errorf("promoted blob (%d bytes) differs from the first cycle's (%d bytes)", len(blob), len(set.blob))
	}
	return &cycleOut{rep: rep, blob: blob}, nil
}

func (b *learnCycle) op(_, i int) error {
	_, err := b.cycle(b.sets[i%len(b.sets)], nil, i)
	return err
}

func (b *learnCycle) close() {}

// trace alternates untraced and traced ops. The cycle's phases come from
// its CycleReport; learn.rest_ms is the cycle's span less those phases
// (compaction bookkeeping, split, serialization, promotion).
// registry.activate_ms replays AddAndActivate of the promoted blob into a
// fresh registry after each traced op.
func (b *learnCycle) trace(n int, tr *tracer) (map[string]float64, loopResult, error) {
	var sum struct {
		fz, fit, eval, rest, activate, used, train, evalPairs, acc float64
	}
	untraced := func(round, _ int) (float64, error) {
		t0 := time.Now()
		_, err := b.cycle(b.sets[round%len(b.sets)], nil, 0)
		return msSince(t0), err
	}
	traced := func(round, i int) (float64, error) {
		t0 := time.Now()
		out, err := b.cycle(b.sets[round%len(b.sets)], tr, i)
		ms := msSince(t0)
		if err != nil {
			return ms, err
		}
		dir := filepath.Join(b.dir, fmt.Sprintf("registry-%d", b.regs.Add(1)))
		reg, err := registry.Open(dir)
		if err == nil {
			id := tr.begin("registry.activate", i, 0)
			_, err = reg.AddAndActivate(out.blob)
			tr.end(id)
		}
		os.RemoveAll(dir)
		if err != nil {
			return ms, err
		}
		rep := out.rep
		var cycleMS float64
		for _, s := range tr.snapshot() {
			switch {
			case s.Op != i:
			case s.Name == "learn.cycle":
				cycleMS = float64(s.dur()) / 1e6
			case s.Name == "registry.activate":
				sum.activate += float64(s.dur()) / 1e6
			}
		}
		phases := (rep.FeaturizeSeconds + rep.TrainSeconds + rep.EvalSeconds) * 1e3
		sum.fz += rep.FeaturizeSeconds * 1e3
		sum.fit += rep.TrainSeconds * 1e3
		sum.eval += rep.EvalSeconds * 1e3
		sum.rest += cycleMS - phases
		sum.used += float64(rep.Compaction.Used)
		sum.train += float64(rep.TrainPairs)
		sum.evalPairs += float64(rep.EvalPairs)
		sum.acc += rep.Challenger.Accuracy
		return ms, nil
	}
	p0 := readProc()
	u, t, lr := alternate(n/2, untraced, traced)
	p1 := readProc()
	spans := tr.snapshot()
	self := selfTimes(spans)
	nt := float64(len(t))
	out := procLayers(p0, p1, lr.attempted, u, t)
	for k, v := range map[string]float64{
		"telemetry.import_ms":   totalMS(spans, "telemetry.import", nil) / nt,
		"registry.seed_ms":      totalMS(spans, "registry.seed", nil) / nt,
		"learn.featurize_ms":    sum.fz / nt,
		"learn.fit_ms":          sum.fit / nt,
		"learn.eval_ms":         sum.eval / nt,
		"learn.rest_ms":         (sum.rest + totalMS(spans, "learn.op", self)) / nt,
		"registry.activate_ms":  sum.activate / nt,
		"learn.records_used":    sum.used / nt,
		"learn.pairs_train":     sum.train / nt,
		"learn.pairs_eval":      sum.evalPairs / nt,
		"learn.shadow_accuracy": sum.acc / nt,
	} {
		out[k] = v
	}
	return out, lr, nil
}
