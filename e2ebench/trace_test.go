package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children cover [10, 50): 40, counted once.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},
		// A disjoint child covers [60, 70) and has a child of its own.
		{ID: 4, Parent: 1, Name: "b", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "c", Start: 62, End: 65},
		// A child overrunning its parent counts only inside it.
		{ID: 6, Parent: 1, Name: "d", Start: 95, End: 120},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 40 - 10 - 5, 2: 30, 3: 20, 4: 7, 5: 3, 6: 25} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	if got := totalMS(spans, "a", nil); got != 50e-6 {
		t.Errorf("total a = %v ms, want 5e-05", got)
	}
	if got := totalMS(spans, "op", self); got != 45e-6 {
		t.Errorf("self op = %v ms, want 4.5e-05", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 1, 0)
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}

func TestTracerKeepsOnlyClosedSpansAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 7, 0)
	child := tr.begin("layer", 7, root)
	tr.end(child)
	if got := len(tr.snapshot()); got != 1 {
		t.Fatalf("%d spans before the root closed, want 1", got)
	}
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != 0 || spans[1].Parent != root || spans[1].Op != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if err := tr.write(filepath.Join(t.TempDir(), "trace.jsonl")); err != nil {
		t.Fatal(err)
	}
}
