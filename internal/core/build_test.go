package core

import (
	"testing"

	"repro/tmi/workloads"
)

// TestBuildInternsOnlyTouchedPages gates the per-run setup cost the model
// checker pays on every explored schedule: building a litmus kernel maps
// (and so interns) its variables' pages and the state page its sync objects
// need, not the whole reserved TMI state region — 8,192 pages at 4 KiB.
func TestBuildInternsOnlyTouchedPages(t *testing.T) {
	w, err := workloads.ByName("litmus-iriw")
	if err != nil {
		t.Fatal(err)
	}
	info := w.Info()
	rt, err := build(w, Config{Setup: TMIAlloc, ForceProtect: true}.withDefaults(), info, info.Threads)
	if err != nil {
		t.Fatal(err)
	}
	const maxPages = 16
	if n := rt.memory.PageTable().Len(); n > maxPages {
		t.Errorf("build interned %d pages, want at most %d", n, maxPages)
	}
}
