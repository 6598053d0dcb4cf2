// Package promtext renders metrics in the Prometheus text exposition
// format: counter, gauge and family-header writers plus a fixed-bucket
// histogram. tmid and tmirouter both render their registries through it,
// so a metric family is formatted the same way wherever it is exposed.
package promtext

import (
	"fmt"
	"io"
	"sort"
)

// Header writes a metric family's # HELP and # TYPE lines.
func Header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes an unlabelled counter family.
func Counter(w io.Writer, name, help string, v uint64) {
	Header(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Gauge writes an unlabelled gauge family.
func Gauge(w io.Writer, name, help string, v float64) {
	Header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %g\n", name, v)
}

// Histogram is a fixed-bucket Prometheus-style histogram. It does no
// locking: the owning registry serializes Observe against Snapshot.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1, the last is the +Inf bucket
	sum    float64
	count  uint64
}

// NewHistogram returns an empty histogram over the given ascending upper
// bucket bounds.
func NewHistogram(bounds ...float64) Histogram {
	return Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one observation.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.count++
}

// Snapshot copies h so it can be read or rendered outside the owner's lock.
func (h *Histogram) Snapshot() Histogram {
	c := *h
	c.counts = append([]uint64(nil), h.counts...)
	return c
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation, or twice the last bound when it falls in the +Inf bucket.
// Bucket resolution is all a latency-budget assertion needs.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := min(uint64(q*float64(h.count)), h.count-1)
	cum := uint64(0)
	for i, c := range h.counts[:len(h.bounds)] {
		cum += c
		if cum > rank {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1] * 2
}

// WriteTo renders h as the histogram family name.
func (h *Histogram) WriteTo(w io.Writer, name, help string) {
	Header(w, name, "histogram", help)
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, b, cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}
