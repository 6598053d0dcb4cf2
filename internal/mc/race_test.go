package mc

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestRaceReaderOrderDeterministic feeds the observer two plain reads of one
// byte at one PC (T0, then T1) and a racing plain write from T2. The single
// report for the PC pair must name T0, the lowest-TID reader, on every run.
func TestRaceReaderOrderDeterministic(t *testing.T) {
	want := []RaceReport{{
		Site1: "read", Site2: "write", PC1: 1, PC2: 2,
		TID1: 0, TID2: 2, Write1: false, Write2: true, Addr: 0x1000,
	}}
	for i := 0; i < 100; i++ {
		e := &explorer{threads: 3, opts: Options{Race: true}}
		r := newRunner(e, nil, nil, modeShrink, nil)
		r.OnAccess(&core.AccessInfo{TID: 0, PC: 1, Addr: 0x1000, Size: 1, Site: "read"})
		r.OnAccess(&core.AccessInfo{TID: 1, PC: 1, Addr: 0x1000, Size: 1, Site: "read"})
		r.OnAccess(&core.AccessInfo{TID: 2, PC: 2, Addr: 0x1000, Size: 1, Write: true, Site: "write"})
		if got := r.races(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: races = %+v, want %+v", i, got, want)
		}
	}
}
