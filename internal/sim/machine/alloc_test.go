package machine

import (
	"testing"

	"repro/internal/raceflag"
)

// A steady-state instruction on a warm page must not allocate: translation
// is slot-indexed, the coherence directory is block-paged, the Access buffer
// is per-thread scratch, and endStep carries no closure. Single-threaded so
// every op stays inside one thread's fast path.
func TestInstructionSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	mc, _ := benchMachine(1)
	var allocs float64
	err := mc.Run([]func(*Thread){func(th *Thread) {
		// Warm: touch the lines and fault the pages first.
		for i := uint64(0); i < 8; i++ {
			th.Store(1, heapBase+i*64, 8, i)
		}
		i := uint64(0)
		allocs = testing.AllocsPerRun(2000, func() {
			th.Store(1, heapBase+(i%8)*64, 8, i)
			th.Load(2, heapBase+(i%8)*64, 8)
			th.AtomicRMW(3, heapBase, 8, func(old uint64) uint64 { return old + 1 })
			th.Work(10)
			i++
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state instructions allocate %.1f/op, want 0", allocs)
	}
}

// firstReady is the trivial Scheduler: always the lowest-ID runnable thread.
type firstReady struct{}

func (firstReady) Pick(ready []*Thread) *Thread { return ready[0] }

// Under an external Scheduler every instruction is a scheduling point; a
// Pick that keeps the running thread must cost no allocation either (the
// ready slice is a reused buffer and the pick is made on the thread's own
// goroutine).
func TestScheduledInstructionAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	mc, _ := benchMachine(2)
	mc.SetScheduler(firstReady{})
	var allocs float64
	err := mc.Run([]func(*Thread){func(th *Thread) {
		for i := uint64(0); i < 8; i++ {
			th.Store(1, heapBase+i*64, 8, i)
		}
		i := uint64(0)
		allocs = testing.AllocsPerRun(2000, func() {
			th.Store(1, heapBase+(i%8)*64, 8, i)
			th.Load(2, heapBase+(i%8)*64, 8)
			th.Work(10)
			i++
		})
	}, func(th *Thread) {}})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("scheduled instructions allocate %.1f/op, want 0", allocs)
	}
}
