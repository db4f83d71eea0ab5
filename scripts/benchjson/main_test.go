package main

import "testing"

func TestSplitProcs(t *testing.T) {
	for _, tc := range []struct {
		in    string
		name  string
		procs int
	}{
		{"BenchmarkTuneQuery-8", "BenchmarkTuneQuery", 8},
		{"BenchmarkTuneQuery", "BenchmarkTuneQuery", 1},
		{"BenchmarkFoo-bar", "BenchmarkFoo-bar", 1},
	} {
		if name, procs := splitProcs(tc.in); name != tc.name || procs != tc.procs {
			t.Errorf("splitProcs(%q) = %q, %d; want %q, %d", tc.in, name, procs, tc.name, tc.procs)
		}
	}
}

func TestHostWarning(t *testing.T) {
	a := &Snapshot{NumCPU: 2, GOMAXPROCS: 2}
	if w := hostWarning(a, &Snapshot{NumCPU: 2, GOMAXPROCS: 2}); w != "" {
		t.Errorf("same host warned: %q", w)
	}
	if w := hostWarning(a, &Snapshot{NumCPU: 8, GOMAXPROCS: 2}); w == "" {
		t.Error("different NumCPU not warned")
	}
	if w := hostWarning(a, &Snapshot{NumCPU: 2, GOMAXPROCS: 1}); w == "" {
		t.Error("different GOMAXPROCS not warned")
	}
	if w := hostWarning(&Snapshot{}, a); w == "" {
		t.Error("unrecorded host not warned")
	}
}
