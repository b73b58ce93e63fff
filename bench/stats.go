package main

import "slices"

// quantile returns the p-quantile of xs by the exclusive method that
// Python's statistics.quantiles uses by default, clamped to the smallest
// and largest value at the ends. It returns 0 for no values.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := p * float64(len(s)+1) // 1-based rank
	if h <= 1 {
		return s[0]
	}
	if h >= float64(len(s)) {
		return s[len(s)-1]
	}
	i := int(h)
	return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

// floats converts integer samples to float64, multiplied by scale.
func floats[T int64 | uint64](xs []T, scale float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) * scale
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
