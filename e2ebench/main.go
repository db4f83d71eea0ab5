// Command e2ebench is the repository's end-to-end benchmark. It drives the
// program through its public Go APIs and its HTTP listener on three
// workloads, checks every output, and prints the measured metrics as one
// JSON object on the last line of standard output.
//
// Run it from the repository root:
//
//	bash e2ebench/run.sh --workload tune-cold --seed 1 --seconds 30 --trace 0
//
// A run is a fixed number of ops, fixed by --seconds times the workload's
// nominal op rate, so the allocation and heap figures do not depend on how
// fast the host is. With --trace 0 the run is timed and reports the
// end-to-end metrics; with --trace 1 a separate traced run reports the
// per-layer metrics and writes its spans under the work directory.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a timed run reports on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"op_alloc_mb", "MB"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports. Every workload reports
// all of them; a layer the workload leaves idle reads 0.
var perLayer = []metricDef{
	{"process.cpu_ms", "ms"},
	{"process.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
	// tune-cold
	{"opt.plan_ms", "ms"},
	{"opt.probes", "count"},
	{"opt.whatif_hit_ratio", "ratio"},
	{"opt.path_memo_hit_ratio", "ratio"},
	{"opt.join_memo_hit_ratio", "ratio"},
	{"models.compare_ms", "ms"},
	{"models.compare_pairs", "count"},
	{"models.compare_batches", "count"},
	{"candidates.ms", "ms"},
	{"candidates.indexes", "count"},
	{"tuner.self_ms", "ms"},
	{"tune.est_cost_ratio", "ratio"},
	// serve-mixed
	{"server.plan_ms", "ms"},
	{"server.adhoc_ms", "ms"},
	{"server.classify_ms", "ms"},
	{"server.classify_batch_ms", "ms"},
	{"server.telemetry_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"opt.hit_us", "us"},
	{"sql.parse_us", "us"},
	{"models.compare_us", "us"},
	{"tenant.admission_rejected", "count"},
	{"tenant.loads", "count"},
	{"tenant.evictions", "count"},
	{"telemetry.records_stored", "count"},
	{"process.heap_growth_kb_per_kreq", "KB/kreq"},
	// learn-cycle
	{"telemetry.import_ms", "ms"},
	{"registry.seed_ms", "ms"},
	{"learn.featurize_ms", "ms"},
	{"learn.fit_ms", "ms"},
	{"learn.eval_ms", "ms"},
	{"learn.rest_ms", "ms"},
	{"registry.activate_ms", "ms"},
	{"learn.records_used", "count"},
	{"learn.pairs_train", "count"},
	{"learn.pairs_eval", "count"},
	{"learn.shadow_accuracy", "ratio"},
}

// bench is one benchmark workload: its inputs, its op and its traced
// run. Set-up builds everything from the seed; the program receives only
// the generated inputs.
type bench interface {
	// setup builds the inputs and warms the program, returning the
	// duration of each of its repeated set-ups.
	setup(env *env) ([]time.Duration, error)
	// op runs op i for a client; an error is a failed call or a failed
	// output check.
	op(client, i int) error
	// trace runs n ops with tracing and returns the per-layer metrics.
	trace(n int, tr *tracer) (map[string]float64, loopResult, error)
	close()
}

// spec describes a workload: how many clients and ops a run holds.
type spec struct {
	name string
	// state is "cold" when every op starts from fresh program state and
	// "warm" when ops reuse caches filled during set-up.
	state   string
	clients int
	// procs, when positive, is the GOMAXPROCS the timed and traced ops run
	// at; set-up always runs at the default.
	procs int
	// opsPerSecond is the nominal op rate on a 2-core host: the run holds
	// seconds × opsPerSecond ops whatever the host's speed.
	opsPerSecond float64
	// minOps is the smallest op count whose latencies support the
	// workload's tail percentile.
	minOps int
	make   func() bench
}

var specs = []spec{
	{name: "tune-cold", state: "cold", clients: 1, opsPerSecond: 5.5, minOps: 100, make: func() bench { return &tuneCold{} }},
	{name: "serve-mixed", state: "warm", clients: serveClients, procs: serveProcs, opsPerSecond: 2800, minOps: 1000, make: func() bench { return &serveMixed{} }},
	{name: "learn-cycle", state: "cold", clients: 1, opsPerSecond: 7, minOps: 100, make: func() bench { return &learnCycle{} }},
}

// env is what a workload's set-up may use.
type env struct {
	seed int64
	// dir is a scratch directory inside the work directory, removed when
	// the run ends.
	dir string
}

// derive returns a positive seed for one named input, so every input of a
// run follows from the run's seed alone.
func derive(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprintf(h, "/%v", p)
	}
	if v := int64(h.Sum64() >> 1); v != 0 {
		return v
	}
	return 1
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// host is the machine a result was measured on.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

// meta is printed with every result, on the line before it.
type meta struct {
	Workload string `json:"workload"`
	State    string `json:"state"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Ops is the number of ops attempted; Samples the number that
	// succeeded and were timed.
	Ops     int `json:"ops"`
	Clients int `json:"clients"`
	// TailPercentile is the percentile op_tail_ms reports (timed runs).
	TailPercentile float64  `json:"tail_percentile,omitempty"`
	Samples        int      `json:"samples"`
	Host           host     `json:"host"`
	TraceFile      string   `json:"trace_file,omitempty"`
	Errors         []string `json:"errors,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: tune-cold, serve-mixed or learn-cycle")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Int("seconds", 30, "run length in seconds at the nominal op rate (fixes the op count)")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workDir := fs.String("work", ".bench_build/e2ebench", "directory for scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	n := int(float64(*seconds) * sp.opsPerSecond)
	if n < sp.minOps {
		return fmt.Errorf("%s: %d s gives %d ops, below the %d its tail needs", sp.name, *seconds, n, sp.minOps)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workDir, sp.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	w := sp.make()
	defer w.close()
	setups, err := w.setup(&env{seed: *seed, dir: dir})
	if err != nil {
		return fmt.Errorf("%s set-up: %w", sp.name, err)
	}
	if sp.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(sp.procs))
	}
	m := meta{Workload: sp.name, State: sp.state, Seed: *seed, Trace: *traceFlag == 1,
		Clients: sp.clients, Host: hostInfo()}
	var res result
	var lr loopResult
	if *traceFlag == 1 {
		tr := newTracer()
		layers, l, err := w.trace(n, tr)
		if err != nil {
			return fmt.Errorf("%s trace: %w", sp.name, err)
		}
		lr = l
		m.TraceFile = filepath.Join(*workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", sp.name, *seed))
		if err := tr.write(m.TraceFile); err != nil {
			return err
		}
		res.Metrics = map[string]metricValue{}
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{Value: layers[d.name], Unit: d.unit}
		}
		for name := range layers {
			if _, ok := res.Metrics[name]; !ok {
				return fmt.Errorf("%s trace measured %s, which is not a per-layer metric", sp.name, name)
			}
		}
	} else {
		p0 := readProc()
		lr = closedLoop(n, sp.clients, w.op)
		p1 := readProc()
		sum, err := summarize(lr.lat)
		if err != nil {
			if lr.failed > 0 {
				err = fmt.Errorf("%w; %d of %d ops failed, first: %v", err, lr.failed, lr.attempted, lr.errs[0])
			}
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		m.TailPercentile = sum.tailPct
		res.Metrics = map[string]metricValue{
			"setup_s":     {Value: medianDuration(setups).Seconds(), Unit: "s"},
			"op_p50_ms":   {Value: sum.p50, Unit: "ms"},
			"op_tail_ms":  {Value: sum.tail, Unit: "ms"},
			"op_alloc_mb": {Value: float64(p1.alloc-p0.alloc) / float64(n) / 1e6, Unit: "MB"},
			"heap_mb":     {Value: liveHeapMB(), Unit: "MB"},
		}
	}
	m.Ops, m.Samples = lr.attempted, len(lr.lat)
	for _, e := range lr.errs {
		m.Errors = append(m.Errors, e.Error())
	}
	res.Attempted, res.Failed = lr.attempted, lr.failed
	res.Correct = lr.failed == 0
	for _, line := range []any{map[string]meta{"meta": m}, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	return nil
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func hostInfo() host {
	h := host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}
