package detect

import (
	"sort"

	"repro/internal/sim/cache"
	"repro/internal/sim/pebs"
)

// This file implements two analyses from the systems the paper compares
// against (§5 related work), as extensions over TMI's own sample stream:
//
//   - Predator-style prediction: reclassify the observed access spans as if
//     the machine had a different cache-line size, predicting which false
//     sharing would appear or vanish on other hardware;
//   - Cheetah-style prediction: estimate the speedup a manual fix would
//     deliver, from the observed false-sharing HITM rate and the machine's
//     latency model.

// Prediction summarizes the expected sharing behavior at one line size.
type Prediction struct {
	LineSize   int
	FalseLines int
	TrueLines  int
}

// PredictAtLineSize reclassifies every archived access span as if the
// coherence granularity were lineSize bytes (a power of two between 16 and
// 512). Larger lines can pull neighbouring threads' private data into false
// sharing; smaller lines can separate falsely-shared fields.
func (h *History) PredictAtLineSize(lineSize int) Prediction {
	p := Prediction{LineSize: lineSize}
	// Regroup: absolute byte spans -> hypothetical lines.
	groups := make(map[uint64]*lineStat)
	for lineAddr, ls := range h.archive {
		for _, t := range ls.threads {
			for _, s := range t.spans {
				// Drop skid-noise spans (same tolerance as the live
				// classifier): a span carrying under 5% of the line's
				// samples is PEBS address imprecision, not an access site.
				if s.Count*20 < ls.records {
					continue
				}
				lo := lineAddr + uint64(s.Lo)
				hi := lineAddr + uint64(s.Hi)
				for addr := lo &^ uint64(lineSize-1); addr < hi; addr += uint64(lineSize) {
					g := groups[addr]
					if g == nil {
						g = &lineStat{}
						groups[addr] = g
					}
					slo := int(max64(lo, addr) - addr)
					shi := int(min64(hi, addr+uint64(lineSize)) - addr)
					g.records += s.Count
					for i := 0; i < s.Count; i++ {
						g.add(t.tid, slo, shi, s.Wrote)
					}
				}
			}
		}
	}
	for _, g := range groups {
		switch classify(g) {
		case SharingFalse:
			p.FalseLines++
		case SharingTrue:
			p.TrueLines++
		}
	}
	return p
}

// PredictLineSizes runs the Predator-style sweep over common line sizes.
func (h *History) PredictLineSizes() []Prediction {
	sizes := []int{16, 32, 64, 128, 256}
	out := make([]Prediction, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, h.PredictAtLineSize(s))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LineSize < out[j].LineSize })
	return out
}

// PredictManualSpeedup is the Cheetah-style estimate: if every observed
// false-sharing HITM event became a private L1 hit (what a manual padding
// fix achieves), how much faster would the run have been? runtimeCycles is
// the measured total per-core runtime.
//
// The estimate is conservative in the same way Cheetah's is: it counts only
// sampled-and-scaled events, so secondary effects (prefetching, shared-line
// read amplification) are not credited.
func (h *History) PredictManualSpeedup(period int, runtimeCycles int64, threads int) float64 {
	if runtimeCycles <= 0 || threads <= 0 {
		return 1
	}
	// Correct for PEBS store under-reporting: store-triggered records
	// represent 1/StoreCaptureRate actual events each.
	loads := float64(h.FalseRecords - h.FalseWriteRecords)
	writes := float64(h.FalseWriteRecords) / pebs.StoreCaptureRate
	estEvents := (loads + writes) * float64(period)
	savedPerCore := estEvents * float64(cache.LatHITM-cache.LatL1Hit) / float64(threads)
	frac := savedPerCore / float64(runtimeCycles)
	if frac >= 0.99 {
		frac = 0.99
	}
	return 1 / (1 - frac)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
