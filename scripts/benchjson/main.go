// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a JSON snapshot, and diffs two snapshots produced earlier.
//
//	go test -bench . -benchmem | go run ./scripts/benchjson -out BENCH_probe.json
//	go run ./scripts/benchjson -diff before.json after.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark line. When -count > 1 produces repeated names, the
// repetitions are averaged.
type Bench struct {
	Name        string  `json:"name"`
	Iters       int64   `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	runs        int64
}

// Snapshot is the file format. NumCPU and GOMAXPROCS record the host the
// benchmarks ran on, so a diff can tell a code change from a hardware
// change; snapshots written before these fields existed leave them 0.
type Snapshot struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// NumCPU is the CPUs usable by the process (runtime.NumCPU).
	NumCPU int `json:"num_cpu,omitempty"`
	// GOMAXPROCS is the benchmarks' own setting, read from the -N suffix
	// go test appends to benchmark names (no suffix means 1).
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	Benchmarks []Bench `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_probe.json", "output path for the parsed snapshot")
	diff := flag.Bool("diff", false, "diff two snapshot files instead of parsing stdin")
	gate := flag.String("gate", "", "comma-separated benchmark names (with or without the Benchmark prefix) whose ns/op must not regress beyond -max-regress in -diff mode; exits 1 on violation")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum allowed fractional ns/op regression for gated benchmarks (0.20 = 20% slower than before)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fatal("usage: benchjson -diff [-gate names] [-max-regress frac] before.json after.json")
		}
		if err := runDiff(flag.Arg(0), flag.Arg(1), parseGate(*gate), *maxRegress); err != nil {
			fatal(err.Error())
		}
		return
	}

	snap, err := parse(os.Stdin)
	if err != nil {
		fatal(err.Error())
	}
	if len(snap.Benchmarks) == 0 {
		fatal("benchjson: no benchmark lines found on stdin")
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err.Error())
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err.Error())
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// parse reads `go test -bench` output. Lines look like:
//
//	BenchmarkExecutorRun-8   5000   232973 ns/op   36123 B/op   267 allocs/op
func parse(f *os.File) (*Snapshot, error) {
	byName := map[string]*Bench{}
	var order []string
	procs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		name, p := splitProcs(fields[0])
		if procs == 0 {
			procs = p
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		b := byName[name]
		if b == nil {
			b = &Bench{Name: name}
			byName[name] = b
			order = append(order, name)
		}
		b.runs++
		b.Iters += iters
		b.NsPerOp += ns
		// Optional -benchmem columns.
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "B/op":
				b.BytesPerOp += v
			case "allocs/op":
				b.AllocsPerOp += v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	snap := &Snapshot{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  procs,
	}
	for _, name := range order {
		b := byName[name]
		n := float64(b.runs)
		snap.Benchmarks = append(snap.Benchmarks, Bench{
			Name:        b.Name,
			Iters:       b.Iters / b.runs,
			NsPerOp:     b.NsPerOp / n,
			BytesPerOp:  b.BytesPerOp / n,
			AllocsPerOp: b.AllocsPerOp / n,
		})
	}
	return snap, nil
}

// splitProcs strips the -GOMAXPROCS suffix from a benchmark name and
// returns it; go test omits the suffix when GOMAXPROCS is 1.
func splitProcs(name string) (string, int) {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i], n
		}
	}
	return name, 1
}

// host describes the machine a snapshot was taken on.
func (s *Snapshot) host() string {
	count := func(n int) string {
		if n == 0 {
			return "?"
		}
		return strconv.Itoa(n)
	}
	return fmt.Sprintf("%s %s/%s NumCPU=%s GOMAXPROCS=%s (%s)",
		s.GoVersion, s.GOOS, s.GOARCH, count(s.NumCPU), count(s.GOMAXPROCS), s.GeneratedAt)
}

// hostWarning explains why two snapshots' timings may not be comparable,
// or returns "" when both record the same host.
func hostWarning(before, after *Snapshot) string {
	switch {
	case before.NumCPU == 0 || before.GOMAXPROCS == 0 || after.NumCPU == 0 || after.GOMAXPROCS == 0:
		return "warning: a snapshot does not record its host; ns/op ratios may mix hardware"
	case before.NumCPU != after.NumCPU || before.GOMAXPROCS != after.GOMAXPROCS:
		return "warning: snapshots come from different hosts; ns/op ratios mix hardware"
	}
	return ""
}

func load(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// parseGate normalizes the -gate list: names may be given with or without
// the "Benchmark" prefix.
func parseGate(s string) []string {
	if s == "" {
		return nil
	}
	var names []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if !strings.HasPrefix(n, "Benchmark") {
			n = "Benchmark" + n
		}
		names = append(names, n)
	}
	return names
}

func runDiff(beforePath, afterPath string, gate []string, maxRegress float64) error {
	before, err := load(beforePath)
	if err != nil {
		return err
	}
	after, err := load(afterPath)
	if err != nil {
		return err
	}
	byName := map[string]Bench{}
	for _, b := range before.Benchmarks {
		byName[b.Name] = b
	}
	var names []string
	afterBy := map[string]Bench{}
	for _, b := range after.Benchmarks {
		afterBy[b.Name] = b
		names = append(names, b.Name)
	}
	sort.Strings(names)
	fmt.Printf("before: %s\nafter:  %s\n", before.host(), after.host())
	if w := hostWarning(before, after); w != "" {
		fmt.Fprintln(os.Stderr, w)
	}
	fmt.Printf("%-34s %14s %14s %9s %12s %12s %9s\n",
		"benchmark", "ns/op before", "ns/op after", "Δtime", "allocs befor", "allocs after", "Δallocs")
	for _, n := range names {
		a := afterBy[n]
		b, ok := byName[n]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %9s %12s %12.0f %9s\n", n, "-", a.NsPerOp, "-", "-", a.AllocsPerOp, "-")
			continue
		}
		fmt.Printf("%-34s %14.0f %14.0f %8.2fx %12.0f %12.0f %8.2fx\n",
			n, b.NsPerOp, a.NsPerOp, ratio(b.NsPerOp, a.NsPerOp),
			b.AllocsPerOp, a.AllocsPerOp, ratio(b.AllocsPerOp, a.AllocsPerOp))
	}
	var violations []string
	for _, n := range gate {
		b, okB := byName[n]
		a, okA := afterBy[n]
		if !okB || !okA {
			violations = append(violations, fmt.Sprintf("%s: missing from %s snapshot", n,
				map[bool]string{true: "after", false: "before"}[okB]))
			continue
		}
		if b.NsPerOp > 0 && a.NsPerOp > b.NsPerOp*(1+maxRegress) {
			violations = append(violations, fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (%.1f%% > %.0f%% allowed)",
				n, b.NsPerOp, a.NsPerOp, (a.NsPerOp/b.NsPerOp-1)*100, maxRegress*100))
		}
	}
	if len(violations) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(violations, "\n  "))
	}
	if len(gate) > 0 {
		fmt.Printf("gate ok: %s within %.0f%% of baseline\n", strings.Join(gate, ", "), maxRegress*100)
	}
	return nil
}

// ratio returns before/after: >1 means the after run is better (smaller).
func ratio(before, after float64) float64 {
	if after == 0 {
		return 0
	}
	return before / after
}
