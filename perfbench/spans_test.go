package main

import (
	"testing"
	"time"
)

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.pass", Start: 0, End: 100},
		// Two concurrent streams covering [10, 70] between them.
		{ID: 2, Name: "service.tick", Start: 10, End: 50, Parent: 1},
		{ID: 3, Name: "service.tick", Start: 30, End: 70, Parent: 1},
		// A grandchild covers 5ns of the first tick.
		{ID: 4, Name: "cluster.migrate", Start: 20, End: 25, Parent: 2},
		// A child poking past its parent only counts inside it.
		{ID: 5, Name: "sim.run", Start: 90, End: 120, Parent: 1},
	}
	got := selfTime(spans)
	want := map[string]time.Duration{
		"bench":   100 - 60 - 10,
		"service": (40 - 5) + 40,
		"cluster": 5,
		"sim":     30,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, got[layer], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("sim.run", 0, "x")
	tr.end(id)
	if id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
}
