package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLogLinearBucketsMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64} {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf(%d) = %d goes backwards (prev %d)", v, idx, prev)
		}
		if idx >= len((&LogLinear{}).counts) {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		if top := bucketTop(idx); top < v {
			t.Fatalf("bucketTop(%d) = %d < value %d", idx, top, v)
		}
		prev = idx
	}
	// Every value's bucket upper edge is within the HDR error bound.
	for v := int64(1); v < 1<<22; v = v*7/6 + 1 {
		top := bucketTop(bucketOf(v))
		if float64(top-v) > float64(v)/subCount+1 {
			t.Fatalf("value %d: bucket top %d exceeds the %v relative error bound", v, top, 1.0/subCount)
		}
	}
}

func TestLogLinearQuantiles(t *testing.T) {
	h := NewLogLinear()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	rng := rand.New(rand.NewSource(42))
	var vals []int64
	for i := 0; i < 10000; i++ {
		v := int64(rng.ExpFloat64() * 50_000)
		vals = append(vals, v)
		h.Record(v)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	// p99 must be within the HDR relative error of the exact rank value.
	exact := exactQuantile(vals, 0.99)
	got := h.Quantile(0.99)
	if math.Abs(float64(got-exact)) > float64(exact)/subCount+1 {
		t.Fatalf("p99 = %d, exact %d: outside the error bound", got, exact)
	}
	if h.Quantile(1.0) != h.Max() {
		t.Fatalf("p100 = %d, want max %d", h.Quantile(1.0), h.Max())
	}
	if h.Quantile(0) != h.Min() {
		t.Fatalf("p0 = %d, want min %d", h.Quantile(0), h.Min())
	}
}

func exactQuantile(vals []int64, q float64) int64 {
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := int(q*float64(len(sorted)) + 0.5)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
