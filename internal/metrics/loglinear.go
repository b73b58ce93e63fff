package metrics

import "math/bits"

// subBits sets the log-linear resolution: 2^subBits linear sub-buckets
// per power of two, bounding the relative quantile error at 2^-subBits
// (~3.1%) — the HdrHistogram trade-off.
const subBits = 5

// subCount is the number of sub-buckets per octave.
const subCount = 1 << subBits

// LogLinear is an HdrHistogram-style fixed-bucket log-linear histogram
// for non-negative int64 samples (nanoseconds of simulated time): exact
// below subCount, then subCount linear sub-buckets per power of two. It
// covers the whole int64 range in a fixed ~15KB of counters, records
// without allocating, and its quantiles are deterministic functions of
// the recorded multiset — unlike the geometric Histogram, whose bucket
// ratio trades error bounds for range.
type LogLinear struct {
	counts   [(64 - subBits) * subCount]int64
	count    int64
	sum      int64
	min, max int64
}

// NewLogLinear returns an empty histogram.
func NewLogLinear() *LogLinear { return &LogLinear{} }

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	shift := bits.Len64(u) - subBits - 1
	return shift<<subBits + int(u>>uint(shift))
}

// bucketTop returns the largest value a bucket holds (its representative
// for quantile queries, mirroring Histogram's upper-edge convention).
func bucketTop(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	shift := idx>>subBits - 1
	base := idx - shift<<subBits
	return (int64(base)+1)<<uint(shift) - 1
}

// Record adds one sample; negative values clamp to zero.
func (h *LogLinear) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *LogLinear) Count() int64 { return h.count }

// Min returns the smallest recorded sample (0 when empty).
func (h *LogLinear) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample (0 when empty).
func (h *LogLinear) Max() int64 { return h.max }

// Mean returns the integer mean sample (0 when empty).
func (h *LogLinear) Mean() int64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// Quantile returns the q-quantile's bucket upper edge, clamped to the
// observed [min, max]. q outside [0,1] clamps.
func (h *LogLinear) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= rank {
			v := bucketTop(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}
