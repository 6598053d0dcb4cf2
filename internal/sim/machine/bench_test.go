package machine

import (
	"testing"

	"repro/internal/sim/mem"
)

func benchMachine(n int) (*Machine, *mem.AddrSpace) {
	m := mem.NewMemory(mem.PageSize4K)
	f := m.NewFile("shm")
	as := mem.NewAddrSpace(m)
	as.Map(heapBase, 16, f, 0, false, mem.ProtRW)
	mc := New(Config{Cores: n, Seed: 1, Mem: m})
	for _, th := range mc.Threads() {
		th.SetSpace(as)
	}
	return mc, as
}

// BenchmarkAccessLatencyL1 measures the single-access fast path: one
// thread re-reading a warm line, so every access after the first is an L1
// hit that never leaves the yield fast path (translate, coherence lookup,
// latency accounting, hook dispatch).
func BenchmarkAccessLatencyL1(b *testing.B) {
	mc, _ := benchMachine(1)
	body := func(th *Thread) {
		th.Store(1, heapBase, 8, 1) // warm the line to M
		for i := 0; i < b.N; i++ {
			th.Load(1, heapBase, 8)
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAccessHITMPath measures the modified-remote-hit path: two
// threads alternately storing to the same word, so nearly every access
// snoops a dirty line out of the other core (HITM) and crosses a
// coroutine token handoff.
func BenchmarkAccessHITMPath(b *testing.B) {
	mc, _ := benchMachine(2)
	per := b.N/2 + 1
	body := func(th *Thread) {
		for i := 0; i < per; i++ {
			th.Store(1, heapBase, 8, uint64(i))
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepThroughputContended measures simulator throughput with 4
// threads ping-ponging one cache line (worst-case token handoff).
func BenchmarkStepThroughputContended(b *testing.B) {
	mc, _ := benchMachine(4)
	per := b.N/4 + 1
	body := func(th *Thread) {
		for i := 0; i < per; i++ {
			th.Store(1, heapBase+uint64(th.ID)*8, 8, uint64(i))
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body, body, body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepThroughputPrivate measures throughput when threads run on
// private lines with pacing work (common case).
func BenchmarkStepThroughputPrivate(b *testing.B) {
	mc, _ := benchMachine(4)
	per := b.N/4 + 1
	body := func(th *Thread) {
		addr := heapBase + uint64(th.ID)*512
		for i := 0; i < per; i++ {
			th.Store(1, addr, 8, uint64(i))
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body, body, body}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepThroughputBlocking measures the blocking handoff, the path
// psync's contended mutex takes: two threads wake each other and block,
// so every handoff has a Blocked thread on one side.
func BenchmarkStepThroughputBlocking(b *testing.B) {
	mc, _ := benchMachine(2)
	per := b.N/2 + 1
	body := func(th *Thread) {
		other := mc.Thread(1 - th.ID)
		for i := 0; i < per; i++ {
			th.Store(1, heapBase+uint64(th.ID)*8, 8, uint64(i))
			th.Unblock(other, 10)
			th.Block()
		}
	}
	b.ResetTimer()
	if err := mc.Run([]func(*Thread){body, body}); err != nil {
		b.Fatal(err)
	}
}
