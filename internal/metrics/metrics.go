// Package metrics provides the measurement primitives the experiment
// harness reports: histograms with quantiles (host-latency distributions,
// post-GRO skb size distributions).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket histogram over float64 samples. Buckets are
// defined by their upper edges; samples beyond the last edge land in an
// overflow bucket. The zero value is not usable; construct with New.
type Histogram struct {
	edges  []float64 // ascending upper edges
	counts []int64   // len(edges)+1, last = overflow
	total  int64
	sum    float64
	max    float64
}

// New builds a histogram with the given ascending bucket upper edges.
func New(edges []float64) *Histogram {
	if len(edges) == 0 {
		panic("metrics: histogram needs at least one edge")
	}
	if !sort.Float64sAreSorted(edges) {
		panic("metrics: edges must ascend")
	}
	cp := make([]float64, len(edges))
	copy(cp, edges)
	return &Histogram{
		edges:  cp,
		counts: make([]int64, len(edges)+1),
		max:    math.Inf(-1),
	}
}

// NewLatency builds a log-spaced histogram suitable for microsecond-scale
// latencies (100ns .. ~10s, 120 buckets).
func NewLatency() *Histogram {
	edges := make([]float64, 0, 120)
	for v := 100.0; v < 1e10 && len(edges) < 120; v *= 1.165 {
		edges = append(edges, v) // nanoseconds
	}
	return New(edges)
}

// NewSize builds a linear histogram for skb sizes (1KB steps to 64KB).
func NewSize() *Histogram {
	edges := make([]float64, 64)
	for i := range edges {
		edges[i] = float64((i + 1) * 1024)
	}
	return New(edges)
}

// Record adds one sample.
func (h *Histogram) Record(v float64) {
	i := sort.SearchFloat64s(h.edges, v)
	h.counts[i]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// RecordN adds the sample n times.
func (h *Histogram) RecordN(v float64, n int64) {
	if n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.edges, v)
	h.counts[i] += n
	h.total += n
	h.sum += v * float64(n)
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1), using
// bucket upper edges; the overflow bucket reports the observed max.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v outside [0,1]", q))
	}
	if h.total == 0 {
		return 0
	}
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.edges) {
				return h.edges[i]
			}
			return h.max
		}
	}
	return h.max
}

// Fraction returns the share of samples with value <= v. Overflow-bucket
// samples (beyond the last edge) count once v reaches the observed max,
// so Fraction(+Inf) is always 1 for a non-empty histogram.
func (h *Histogram) Fraction(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	var cum int64
	for i, c := range h.counts {
		if i < len(h.edges) {
			if h.edges[i] <= v {
				cum += c
			}
		} else if v >= h.max {
			cum += c
		}
	}
	return float64(cum) / float64(h.total)
}

// Buckets returns (edge, count) pairs including the overflow bucket
// (edge = +Inf).
func (h *Histogram) Buckets() ([]float64, []int64) {
	edges := make([]float64, len(h.edges)+1)
	copy(edges, h.edges)
	edges[len(h.edges)] = math.Inf(1)
	counts := make([]int64, len(h.counts))
	copy(counts, h.counts)
	return edges, counts
}

// Reset clears all samples.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.max = math.Inf(-1)
}
