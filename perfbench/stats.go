package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs, or 0 for no
// samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)]
}

// rank is the zero-based index of the nearest-rank p-th percentile of n
// sorted samples.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailPercentile picks the highest of the usual tail percentiles that still
// has at least ten of n samples beyond it; ok is false when none has.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if n-rank(n, p)-1 >= 10 {
			return p, true
		}
	}
	return 0, false
}

// describe renders a timing series the way the report prints it: the median,
// the highest percentile with ten samples beyond it, and the sample count.
func describe(xs []float64, unit string) string {
	if unit != "" {
		unit = " " + unit
	}
	s := fmt.Sprintf("median %.6g%s", median(xs), unit)
	if p, ok := tailPercentile(len(xs)); ok {
		s += fmt.Sprintf(", p%g %.6g%s", p, percentile(xs, p), unit)
	} else {
		s += ", no percentile with 10 samples beyond it"
	}
	return s + fmt.Sprintf(", n=%d", len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
