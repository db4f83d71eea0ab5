package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/aimai"
	"repro/internal/candidates"
	"repro/internal/engine/catalog"
	"repro/internal/engine/opt"
	"repro/internal/engine/query"
	"repro/internal/expdata"
	"repro/internal/feat"
	"repro/internal/learn"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/server"
	sqlparse "repro/internal/sql"
	"repro/internal/util"
)

// serveMixed is a closed loop with one client connection against an
// in-process server on a loopback listener, configured as `aimai serve`
// configures it: metrics on, a disk-backed tenants directory, no learning
// ticker. Four tenants each upload their own model. Each op is one request
// from a fixed pool generated from the seed, cycled. HTTP, JSON, tenant
// admission and the what-if cache hit path dominate; every pooled request
// is sent once during set-up, so the whole working set is cached and
// planning barely runs.
type serveMixed struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	clients []*http.Client
	pool    []*request

	// wi is the server's what-if facade, for the cache-hit replay.
	wi     *opt.WhatIf
	schema *catalog.Schema
	clfs   []*models.Classifier

	// tr, when set, receives a span per handler call.
	tr atomic.Pointer[tracer]
}

const (
	serveTenants  = 4
	servePoolSize = 400
	serveSetups   = 3
	// serveClients is the number of client connections and serveProcs the
	// GOMAXPROCS the ops run at. With one of each, client, server and
	// runtime share one thread and hand each request over without waking
	// another CPU. Two connections at GOMAXPROCS 2 keep both CPUs busy
	// with cross-CPU hand-offs, which track the host's load more closely:
	// on a shared 2-vCPU VM (Intel Xeon), request blocks alternating
	// between the two set-ups in one process gave block medians whose
	// quartile spread was about 1.4 times as wide at two connections.
	serveClients = 1
	serveProcs   = 1
)

// serveMix is the request mix: kind and its share of the pool.
var serveMix = []struct {
	kind  string
	share float64
}{
	{"classify", 0.40},
	{"classify_batch", 0.15},
	{"plan", 0.30},
	{"adhoc", 0.10},
	{"telemetry", 0.05},
}

// request is one pooled request with what its response must hold.
type request struct {
	kind string
	path string
	body []byte

	// Replay inputs: the query (or SQL) and the configurations it plans,
	// and for classify kinds the tenant's classifier and plan pairs.
	q     *query.Query
	sql   string
	specs [][]server.IndexSpec
	clf   int
	pairs []models.PlanPair

	// Expected response fields.
	costs    []float64
	ids      []string
	verdicts []string
	records  int
}

func (b *serveMixed) setup(e *env) ([]time.Duration, error) {
	var durs []time.Duration
	for r := 0; r < serveSetups; r++ {
		b.close()
		t0 := time.Now()
		if err := b.start(e, r); err != nil {
			return nil, err
		}
		durs = append(durs, time.Since(t0))
	}
	return durs, nil
}

// start builds the database and models, starts the server, uploads the
// tenants' models, generates the request pool with its expected results,
// and sends every pooled request once.
func (b *serveMixed) start(e *env, rep int) error {
	seed := e.seed
	w := aimai.TPCH("tpch", tuneLineitemRows, derive(seed, "serve", "db"))
	sys, err := aimai.Open(w, derive(seed, "serve", "stats"))
	if err != nil {
		return err
	}
	ds, err := sys.CollectExecutionData(aimai.CollectOptions{Seed: derive(seed, "serve", "collect")})
	if err != nil {
		return err
	}
	pairs := ds.Pairs(60, util.NewRNG(derive(seed, "serve", "pairs")))
	var blobs [][]byte
	b.clfs = nil
	for k := 0; k < serveTenants; k++ {
		clf, err := aimai.TrainClassifier(pairs, aimai.ClassifierOptions{Seed: derive(seed, "serve", "model", k)})
		if err != nil {
			return err
		}
		var blob bytes.Buffer
		if err := models.SaveClassifier(clf, &blob); err != nil {
			return err
		}
		blobs = append(blobs, blob.Bytes())
		// The reference is the uploaded blob read back, the model the
		// server serves.
		ref, err := models.LoadClassifier(bytes.NewReader(blob.Bytes()))
		if err != nil {
			return err
		}
		b.clfs = append(b.clfs, ref)
	}

	obs.SetEnabled(true)
	b.srv, err = server.New(server.Config{
		Workload:   sys.Workload,
		WhatIf:     sys.WhatIf,
		Exec:       sys.Exec,
		TenantsDir: filepath.Join(e.dir, fmt.Sprintf("tenants-%d", rep)),
		Learn:      learn.Options{Seed: derive(seed, "serve", "learn")},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: b.wrap(b.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.clients = make([]*http.Client, serveClients)
	for c := range b.clients {
		b.clients[c] = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}}
	}
	b.wi, b.schema = sys.WhatIf, w.Schema

	for k, blob := range blobs {
		resp, err := b.clients[0].Post(b.base+tenantPath(k, "models"), "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("uploading tenant %d's model: HTTP %d", k, resp.StatusCode)
		}
	}
	var recs []expdata.PlanRecord
	for _, ep := range ds.Plans {
		recs = append(recs, expdata.ToRecord(ep, feat.DefaultChannels()))
	}
	ref := opt.NewWhatIf(opt.New(w.Schema, sys.WhatIf.Opt.Stats))
	if b.pool, err = makePool(seed, w.Queries, w.Schema, ref, b.clfs, recs); err != nil {
		return err
	}
	for i := range b.pool {
		if err := b.op(0, i); err != nil {
			return fmt.Errorf("warm-up request %d (%s): %w", i, b.pool[i].kind, err)
		}
	}
	return nil
}

func tenantPath(k int, route string) string {
	return fmt.Sprintf("/v1/t/tenant-%d/%s", k, route)
}

// makePool generates the request pool from the seed with the expected
// result of each request, computed by direct what-if planning on a
// separate optimizer over the same statistics and by the tenants' models.
func makePool(seed int64, qs []*query.Query, schema *catalog.Schema, ref *opt.WhatIf, clfs []*models.Classifier, recs []expdata.PlanRecord) ([]*request, error) {
	rng := util.NewRNG(derive(seed, "serve", "pool"))
	var kinds []string
	for _, m := range serveMix {
		for j := 0; j < int(m.share*servePoolSize+0.5); j++ {
			kinds = append(kinds, m.kind)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	pool := make([]*request, 0, len(kinds))
	for _, kind := range kinds {
		q := qs[rng.Intn(len(qs))]
		k := rng.Intn(len(clfs))
		cands := candidates.CandidateIndexes(q, schema)
		config := func() []server.IndexSpec {
			n := rng.Intn(3)
			var specs []server.IndexSpec
			for _, j := range rng.Perm(len(cands)) {
				if len(specs) == n {
					break
				}
				specs = append(specs, toSpec(cands[j]))
			}
			return specs
		}
		r := &request{kind: kind, q: q, clf: k}
		var body any
		switch kind {
		case "plan", "adhoc":
			r.specs = [][]server.IndexSpec{config()}
			body = map[string]any{"query": q.Name, "indexes": r.specs[0]}
			r.path = tenantPath(k, "plan")
			if kind == "adhoc" {
				r.sql = q.SQL()
				parsed, err := sqlparse.Parse(r.sql, schema)
				if err != nil {
					return nil, err
				}
				r.q = parsed
				body = map[string]any{"sql": r.sql, "indexes": r.specs[0]}
			}
			p, err := ref.Plan(r.q, specConfig(r.specs[0]))
			if err != nil {
				return nil, err
			}
			r.costs = []float64{p.EstTotalCost}
			for _, ix := range specConfig(r.specs[0]).Indexes() {
				r.ids = append(r.ids, ix.ID())
			}
		case "classify", "classify_batch":
			n := 1
			if kind == "classify_batch" {
				n = 8
			}
			var specPairs []map[string]any
			for j := 0; j < n; j++ {
				a, bb := config(), config()
				r.specs = append(r.specs, a, bb)
				pa, err := ref.Plan(q, specConfig(a))
				if err != nil {
					return nil, err
				}
				pb, err := ref.Plan(q, specConfig(bb))
				if err != nil {
					return nil, err
				}
				r.pairs = append(r.pairs, models.PlanPair{P1: pa, P2: pb})
				r.costs = append(r.costs, pa.EstTotalCost, pb.EstTotalCost)
				r.verdicts = append(r.verdicts, clfs[k].Compare(pa, pb).String())
				specPairs = append(specPairs, map[string]any{"indexes_a": a, "indexes_b": bb})
			}
			r.path = tenantPath(k, "classify")
			if kind == "classify" {
				body = map[string]any{"query": q.Name, "indexes_a": r.specs[0], "indexes_b": r.specs[1]}
			} else {
				body = map[string]any{"query": q.Name, "pairs": specPairs}
			}
		case "telemetry":
			const batch = 20
			start := rng.Intn(len(recs) - batch)
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for _, rec := range recs[start : start+batch] {
				if err := enc.Encode(rec); err != nil {
					return nil, err
				}
			}
			r.path, r.body, r.records = tenantPath(k, "telemetry"), buf.Bytes(), batch
			pool = append(pool, r)
			continue
		}
		var err error
		if r.body, err = json.Marshal(body); err != nil {
			return nil, err
		}
		pool = append(pool, r)
	}
	return pool, nil
}

// toSpec is the wire form of a candidate index.
func toSpec(ix *catalog.Index) server.IndexSpec {
	if ix.Kind == catalog.Columnstore {
		return server.IndexSpec{Table: ix.Table, Kind: "columnstore"}
	}
	return server.IndexSpec{Table: ix.Table, Kind: "btree", Key: ix.KeyColumns, Include: ix.IncludedColumns}
}

// specConfig builds the configuration the server builds from specs.
func specConfig(specs []server.IndexSpec) *catalog.Configuration {
	cfg := catalog.NewConfiguration()
	for _, s := range specs {
		ix := &catalog.Index{Table: s.Table}
		if s.Kind == "columnstore" {
			ix.Kind = catalog.Columnstore
		} else {
			ix.KeyColumns, ix.IncludedColumns = s.Key, s.Include
		}
		cfg.Add(ix)
	}
	return cfg
}

// wrap times the server's handler for traced requests: the client puts
// "<op>.<span>" in X-Request-ID, and the handler's span becomes a child of
// the client's request span.
func (b *serveMixed) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := b.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		opStr, parentStr, _ := strings.Cut(r.Header.Get("X-Request-ID"), ".")
		op, _ := strconv.Atoi(opStr)
		parent, _ := strconv.Atoi(parentStr)
		tr.record("server.handler", op, parent, t0, t1)
	})
}

func (b *serveMixed) op(client, i int) error {
	return b.send(client, i, nil)
}

// send issues op i (pool entry i mod pool size) on a client's connection
// and checks the response; with a tracer it records the request's span.
func (b *serveMixed) send(client, i int, tr *tracer) error {
	r := b.pool[i%len(b.pool)]
	req, err := http.NewRequest(http.MethodPost, b.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.begin("request."+r.kind, i, 0)
	req.Header.Set("X-Request-ID", fmt.Sprintf("%d.%d", i, id))
	resp, err := b.clients[client].Do(req)
	if err != nil {
		tr.end(id)
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: HTTP %d: %s", r.kind, resp.StatusCode, bytes.TrimSpace(body))
	}
	return r.check(body)
}

// check compares a response with the request's expected result.
func (r *request) check(body []byte) error {
	var resp struct {
		EstCost  float64  `json:"est_cost"`
		Indexes  []string `json:"indexes"`
		Verdict  string   `json:"verdict"`
		EstCostA float64  `json:"est_cost_a"`
		EstCostB float64  `json:"est_cost_b"`
		Verdicts []struct {
			Verdict  string  `json:"verdict"`
			EstCostA float64 `json:"est_cost_a"`
			EstCostB float64 `json:"est_cost_b"`
		} `json:"verdicts"`
		Accepted int `json:"accepted"`
		Stored   int `json:"stored"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", r.kind, err)
	}
	var got, want string
	switch r.kind {
	case "plan", "adhoc":
		got = fmt.Sprintf("%v %v", resp.EstCost, resp.Indexes)
		want = fmt.Sprintf("%v %v", r.costs[0], r.ids)
	case "classify":
		got = fmt.Sprintf("%s %v %v", resp.Verdict, resp.EstCostA, resp.EstCostB)
		want = fmt.Sprintf("%s %v %v", r.verdicts[0], r.costs[0], r.costs[1])
	case "classify_batch":
		for _, v := range resp.Verdicts {
			got += fmt.Sprintf("%s %v %v; ", v.Verdict, v.EstCostA, v.EstCostB)
		}
		for j, v := range r.verdicts {
			want += fmt.Sprintf("%s %v %v; ", v, r.costs[2*j], r.costs[2*j+1])
		}
	case "telemetry":
		got = fmt.Sprintf("accepted %d stored %d", resp.Accepted, resp.Stored)
		want = fmt.Sprintf("accepted %d stored %d", r.records, r.records)
	}
	if got != want {
		return fmt.Errorf("%s: got %s, want %s", r.kind, got, want)
	}
	return nil
}

func (b *serveMixed) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if b.hs != nil {
		_ = b.hs.Shutdown(ctx)
	}
	if b.srv != nil {
		_ = b.srv.Shutdown(ctx)
	}
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
	b.hs, b.srv, b.clients = nil, nil, nil
}

// serveBlock is the number of requests in one untraced or traced block of
// the traced run.
const serveBlock = 500

// trace alternates blocks of untraced and traced requests. In a traced
// block the client records a span per request and the handler wrapper a
// child span per handler call; the difference is the transport (client,
// loopback TCP and net/http framing). After the blocks, the cache-hit
// path, SQL parsing and model comparison are replayed on the pool.
func (b *serveMixed) trace(n int, tr *tracer) (map[string]float64, loopResult, error) {
	counters := func() map[string]int64 { return obs.TakeSnapshot().Counters }
	c0 := counters()
	var next int
	var growthMB float64
	// Every block starts from a collected heap; the live heap's growth is
	// read across untraced blocks only, so the spans do not count in it.
	block := func(traced bool) loopResult {
		heap0 := liveHeapMB()
		var t *tracer
		if traced {
			t = tr
			b.tr.Store(tr)
			defer b.tr.Store(nil)
		}
		base := next
		next += serveBlock
		lr := closedLoop(serveBlock, serveClients, func(c, i int) error { return b.send(c, base+i, t) })
		if !traced {
			growthMB += liveHeapMB() - heap0
		}
		return lr
	}
	var lr loopResult
	var u, t []float64
	p0 := readProc()
	for r := 0; r < n/(2*serveBlock); r++ {
		for k := 0; k < 2; k++ {
			traced := (r+k)%2 == 1
			l := block(traced)
			if traced {
				t = append(t, l.lat...)
			} else {
				u = append(u, l.lat...)
			}
			lr.lat = append(lr.lat, l.lat...)
			lr.attempted += l.attempted
			lr.failed += l.failed
			lr.errs = append(lr.errs, l.errs...)
		}
	}
	p1 := readProc()
	c1 := counters()
	if len(lr.errs) > maxKeptErrs {
		lr.errs = lr.errs[:maxKeptErrs]
	}

	// Handler spans land just after their responses; wait for the last.
	spans := tr.snapshot()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); spans = tr.snapshot() {
		var handlers int
		for _, s := range spans {
			if s.Name == "server.handler" {
				handlers++
			}
		}
		if handlers == len(spans)-handlers {
			break
		}
		time.Sleep(time.Millisecond)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	handlerMS := map[string][]float64{}
	var transport []float64
	for _, s := range spans {
		if s.Name != "server.handler" {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			continue
		}
		kind := strings.TrimPrefix(parent.Name, "request.")
		handlerMS[kind] = append(handlerMS[kind], float64(s.dur())/1e6)
		transport = append(transport, float64(parent.dur()-s.dur())/1e6)
	}
	p50 := func(kind string) float64 {
		if len(handlerMS[kind]) == 0 {
			return 0
		}
		return median(handlerMS[kind])
	}
	out := procLayers(p0, p1, lr.attempted, u, t)
	for k, v := range map[string]float64{
		"server.plan_ms":                  p50("plan"),
		"server.adhoc_ms":                 p50("adhoc"),
		"server.classify_ms":              p50("classify"),
		"server.classify_batch_ms":        p50("classify_batch"),
		"server.telemetry_ms":             p50("telemetry"),
		"server.transport_ms":             median(transport),
		"tenant.admission_rejected":       float64(c1["server.admission.rejected"] - c0["server.admission.rejected"]),
		"tenant.loads":                    float64(c1["server.tenant.loads"] - c0["server.tenant.loads"]),
		"tenant.evictions":                float64(c1["server.tenant.evictions"] - c0["server.tenant.evictions"]),
		"telemetry.records_stored":        float64(c1["server.telemetry.records"] - c0["server.telemetry.records"]),
		"process.heap_growth_kb_per_kreq": growthMB * 1e3 / (float64(len(u)) / 1e3),
	} {
		out[k] = v
	}
	hit, parse, compare, err := b.replay(tr)
	if err != nil {
		return nil, lr, err
	}
	out["opt.hit_us"], out["sql.parse_us"], out["models.compare_us"] = hit, parse, compare
	return out, lr, nil
}

// replayPasses is how many times each replay walks the pool.
const replayPasses = 5

// replay times, per call in microseconds, the layers a warm request
// crosses without HTTP: a what-if Plan that hits the cache (key
// construction included, on freshly built configurations as the server
// builds them per request), SQL parsing of the ad-hoc statements, and the
// tenant model's Compare on the classify pairs.
func (b *serveMixed) replay(tr *tracer) (hitUS, parseUS, compareUS float64, err error) {
	type probe struct {
		q   *query.Query
		cfg *catalog.Configuration
	}
	var probes []probe
	var sqls []string
	for pass := 0; pass < replayPasses; pass++ {
		for _, r := range b.pool {
			for _, s := range r.specs {
				probes = append(probes, probe{r.q, specConfig(s)})
			}
			if r.sql != "" {
				sqls = append(sqls, r.sql)
			}
		}
	}
	// timed runs fn, records it as one span and returns its microseconds
	// per call.
	timed := func(name string, calls int, fn func() error) (float64, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		tr.record(name, -1, 0, t0, t1)
		return float64(t1.Sub(t0).Nanoseconds()) / 1e3 / float64(calls), err
	}
	if hitUS, err = timed("replay.opt.hit", len(probes), func() error {
		for _, p := range probes {
			if _, err := b.wi.Plan(p.q, p.cfg); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	if parseUS, err = timed("replay.sql.parse", len(sqls), func() error {
		for _, s := range sqls {
			if _, err := sqlparse.Parse(s, b.schema); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	type comparison struct {
		clf  *models.Classifier
		pair models.PlanPair
		want string
	}
	var cmps []comparison
	for pass := 0; pass < replayPasses; pass++ {
		for _, r := range b.pool {
			for j, p := range r.pairs {
				cmps = append(cmps, comparison{b.clfs[r.clf], p, r.verdicts[j]})
			}
		}
	}
	if compareUS, err = timed("replay.models.compare", len(cmps), func() error {
		for _, c := range cmps {
			if got := c.clf.Compare(c.pair.P1, c.pair.P2).String(); got != c.want {
				return fmt.Errorf("replayed verdict %s, want %s", got, c.want)
			}
		}
		return nil
	}); err != nil {
		return 0, 0, 0, err
	}
	return hitUS, parseUS, compareUS, nil
}
