package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRecordAndMean(t *testing.T) {
	h := New([]float64{10, 20, 30})
	for _, v := range []float64{5, 15, 25, 100} {
		h.Record(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if got := h.Mean(); got != 36.25 {
		t.Errorf("Mean = %v, want 36.25", got)
	}
	if h.Max() != 100 {
		t.Errorf("Max = %v, want 100", h.Max())
	}
}

func TestQuantile(t *testing.T) {
	h := NewLatency()
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i) * 1000) // 1us .. 1ms in ns
	}
	p50 := h.Quantile(0.5)
	if p50 < 400e3 || p50 > 700e3 {
		t.Errorf("p50 = %v, want ~500us", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900e3 || p99 > 1.3e6 {
		t.Errorf("p99 = %v, want ~1ms", p99)
	}
	if h.Quantile(1) < h.Quantile(0.5) {
		t.Error("quantiles must be monotone")
	}
}

func TestQuantileEmpty(t *testing.T) {
	h := NewSize()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestQuantileOutOfRangePanics(t *testing.T) {
	h := NewSize()
	defer func() {
		if recover() == nil {
			t.Error("Quantile(1.5) should panic")
		}
	}()
	h.Quantile(1.5)
}

func TestFraction(t *testing.T) {
	h := NewSize()
	h.RecordN(2048, 3)  // <= 2KB edge
	h.RecordN(60000, 1) // ~59KB
	if got := h.Fraction(4096); got != 0.75 {
		t.Errorf("Fraction(4KB) = %v, want 0.75", got)
	}
	if got := h.Fraction(65536); got != 1 {
		t.Errorf("Fraction(64KB) = %v, want 1", got)
	}
}

// Regression: overflow-bucket samples were never counted by Fraction, so
// Fraction(+Inf) reported < 1 whenever any sample exceeded the last edge.
func TestFractionCountsOverflowBucket(t *testing.T) {
	h := NewSize()
	h.RecordN(2048, 3)
	h.RecordN(100_000, 1) // beyond the 64KB last edge -> overflow bucket
	if got := h.Fraction(math.Inf(1)); got != 1 {
		t.Errorf("Fraction(+Inf) = %v, want 1", got)
	}
	if got := h.Fraction(100_000); got != 1 {
		t.Errorf("Fraction(max) = %v, want 1", got)
	}
	// Below the observed max, overflow samples must not count.
	if got := h.Fraction(65536); got != 0.75 {
		t.Errorf("Fraction(64KB) = %v, want 0.75", got)
	}
	if got := h.Fraction(99_999); got != 0.75 {
		t.Errorf("Fraction(just below max) = %v, want 0.75", got)
	}
}

func TestOverflowBucket(t *testing.T) {
	h := New([]float64{10})
	h.Record(1e9)
	edges, counts := h.Buckets()
	if len(edges) != 2 || counts[1] != 1 {
		t.Errorf("overflow bucket not used: %v %v", edges, counts)
	}
	if h.Quantile(1) != 1e9 {
		t.Errorf("overflow quantile should report the max, got %v", h.Quantile(1))
	}
}

func TestReset(t *testing.T) {
	h := NewSize()
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("Reset should clear samples")
	}
	h.Record(5)
	if h.Count() != 1 {
		t.Error("histogram should be reusable after Reset")
	}
}

func TestRecordNIgnoresNonPositive(t *testing.T) {
	h := NewSize()
	h.RecordN(100, 0)
	h.RecordN(100, -3)
	if h.Count() != 0 {
		t.Error("non-positive RecordN should be ignored")
	}
}

func TestBadConstruction(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { New(nil) },
		"unsorted": func() { New([]float64{5, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: quantile bounds bracket the true order statistics.
func TestPropertyQuantileBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewLatency()
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r%1e9) + 100
			h.Record(vals[i])
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			// Match the histogram's rank rounding, then the reported
			// bucket upper edge must bound the true order statistic.
			rank := int(q*float64(len(vals)) + 0.5)
			if rank < 1 {
				rank = 1
			}
			if rank > len(vals) {
				rank = len(vals)
			}
			if h.Quantile(q) < vals[rank-1] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
