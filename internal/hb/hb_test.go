package hb

import (
	"testing"

	"repro/internal/raceflag"
)

// TestAccessAllocatesOneEpoch: once a byte has state, a plain access costs
// exactly one allocation, its epoch. The model checker runs a fresh detector
// on every explored schedule, so this is its hot path.
func TestAccessAllocatesOneEpoch(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("-race instruments allocations")
	}
	d := New[string](2)
	w := Access[string]{TID: 0, PC: 1, Addr: 0x100, Size: 8, Write: true, Meta: "w"}
	r := Access[string]{TID: 1, PC: 2, Addr: 0x100, Size: 8, Meta: "r"}
	d.Access(w)
	d.Access(r)
	for _, a := range []Access[string]{w, r} {
		if n := testing.AllocsPerRun(100, func() { d.Access(a) }); n != 1 {
			t.Errorf("%s: %v allocs per access, want 1", a.Meta, n)
		}
	}
}
