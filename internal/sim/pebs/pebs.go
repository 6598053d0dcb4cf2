// Package pebs simulates Intel's Precise Event-Based Sampling of HITM
// coherence events (MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM in the paper).
//
// A Sampler counts HITM events per hardware thread and, every `period`
// events, deposits a PEBS record — instruction address, data address,
// register snapshot — into that thread's in-memory buffer, charging the
// microarchitectural assist cost to the thread that triggered it.
//
// The model includes the two imprecision effects the paper (and LASER)
// document: HITM events caused by stores produce records at a lower rate
// than loads, and the recorded data address occasionally skids while the PC
// stays accurate.
package pebs

import (
	"math/rand"
	"sync"
)

// Record is one PEBS sample.
type Record struct {
	TID   int
	Core  int
	PC    uint64
	Addr  uint64 // virtual data address (may have skidded)
	Write bool
	Time  int64 // simulated cycles at capture
}

// Costs and imprecision parameters.
const (
	// CostAssist is the per-record microarchitectural assist cost charged to
	// the triggering thread.
	CostAssist = 1200
	// CostInterrupt is charged when a buffer fills and the OS driver is
	// notified.
	CostInterrupt = 30_000
	// StoreCaptureRate is the probability a store-triggered HITM advances
	// the sampling counter (stores under-report relative to loads).
	StoreCaptureRate = 0.4
	// AddrSkidProb is the probability the recorded data address is off by
	// one access-size step (the PC remains accurate).
	AddrSkidProb = 0.02
	// BufferRecords is the per-thread buffer capacity before an interrupt
	// is raised and the buffer handed to userspace.
	BufferRecords = 1024
	// BufferFootprintBytes is the per-thread buffer's memory cost as
	// accounted in Figure 8 (the perf mmap area is far larger than the
	// record payload).
	BufferFootprintBytes = 4 << 20
)

// Buffer is a per-thread PEBS record buffer with drop accounting.
type Buffer struct {
	mu      sync.Mutex
	records []Record
	Dropped uint64
}

// DrainInto appends the buffered records to dst and returns the extended
// slice, clearing the buffer while keeping its backing array. It allocates
// nothing once dst and the buffer reach steady-state capacity, which is
// what keeps the detector's once-per-tick drain off the heap.
func (b *Buffer) DrainInto(dst []Record) []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	dst = append(dst, b.records...)
	b.records = b.records[:0]
	return dst
}

// Len reports the number of buffered records.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.records)
}

// Sampler is the per-machine PEBS engine.
type Sampler struct {
	period   int
	counters []int
	buffers  []*Buffer
	rngs     []*rand.Rand

	// Totals for the Figure 4 sweep.
	EventsSeen      uint64 // raw HITM events observed
	RecordsEmitted  uint64
	InterruptsTaken uint64
}

// NewSampler creates a sampler for nThreads hardware threads with the given
// sampling period (records one event in `period`).
func NewSampler(nThreads, period int, seed int64) *Sampler {
	if period < 1 {
		period = 1
	}
	s := &Sampler{period: period}
	for i := 0; i < nThreads; i++ {
		s.counters = append(s.counters, 0)
		s.buffers = append(s.buffers, &Buffer{})
		s.rngs = append(s.rngs, rand.New(rand.NewSource(seed*104729+int64(i))))
	}
	return s
}

// Period returns the sampling period.
func (s *Sampler) Period() int { return s.period }

// SetPeriod reprograms the sampling period (the perf API allows this at
// runtime; TMI's adaptive-period extension uses it).
func (s *Sampler) SetPeriod(p int) {
	if p < 1 {
		p = 1
	}
	s.period = p
	for i := range s.counters {
		s.counters[i] = 0
	}
}

// Buffer returns thread tid's record buffer.
func (s *Sampler) Buffer(tid int) *Buffer { return s.buffers[tid] }

// DrainInto appends every thread's pending records to dst, in thread order,
// and returns the extended slice. With a reused dst this is allocation-free
// at steady state; it is the detector's record source (detect.Ingestor).
func (s *Sampler) DrainInto(dst []Record) []Record {
	for _, b := range s.buffers {
		dst = b.DrainInto(dst)
	}
	return dst
}

// Dropped reports records lost to full buffers, across all threads.
func (s *Sampler) Dropped() uint64 {
	var n uint64
	for _, b := range s.buffers {
		n += b.Dropped
	}
	return n
}

// OnHITM processes one HITM event observed by thread tid on core at
// simulated time now, for an access at (pc, addr, size, write). It returns
// the cycles of overhead to charge to the thread (assist and interrupt
// costs), which is the mechanism behind the period-versus-runtime tradeoff
// of Figure 4.
func (s *Sampler) OnHITM(tid, core int, pc, addr uint64, size int, write bool, now int64) int64 {
	s.EventsSeen++
	rng := s.rngs[tid]
	if write && rng.Float64() > StoreCaptureRate {
		return 0 // store HITMs under-report
	}
	s.counters[tid]++
	if s.counters[tid] < s.period {
		return 0
	}
	s.counters[tid] = 0
	rec := Record{TID: tid, Core: core, PC: pc, Addr: addr, Write: write, Time: now}
	if rng.Float64() < AddrSkidProb {
		if rng.Intn(2) == 0 && rec.Addr >= uint64(size) {
			rec.Addr -= uint64(size)
		} else {
			rec.Addr += uint64(size)
		}
	}
	var cost int64 = CostAssist
	b := s.buffers[tid]
	b.mu.Lock()
	if len(b.records) >= BufferRecords {
		b.Dropped++
	} else {
		b.records = append(b.records, rec)
		if len(b.records) == BufferRecords {
			cost += CostInterrupt
			s.InterruptsTaken++
		}
	}
	b.mu.Unlock()
	s.RecordsEmitted++
	return cost
}

// FootprintBytes reports the buffers' memory cost for Figure 8.
func (s *Sampler) FootprintBytes() uint64 {
	return uint64(len(s.buffers)) * BufferFootprintBytes
}
