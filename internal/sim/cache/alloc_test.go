package cache

import (
	"testing"

	"repro/internal/raceflag"
)

// Steady-state coherence traffic must not allocate: the directory blocks
// are paid for on first touch, after which hits, HITMs, upgrades and fills
// on warm lines are pure array work. This is the guard that keeps the
// refactor from silently regressing back to map-per-access.
func TestAccessSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	s := New(4)
	// Warm every line the loop touches (allocates directory blocks).
	for c := 0; c < 4; c++ {
		for i := uint64(0); i < 64; i++ {
			s.Access(c, 0x1000+i*LineSize, 8, true, false)
		}
	}
	i := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		c := int(i % 4)
		s.Access(c, 0x1000+(i%64)*LineSize, 8, i%2 == 0, false) // ping-pong: HITM path
		s.Access(c, 0x1000+(i%64)*LineSize, 8, false, false)    // local hit path
		i++
	})
	if allocs != 0 {
		t.Errorf("steady-state Access allocates %.1f/op, want 0", allocs)
	}
}
