package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples and whether the sample supports it: a percentile is reported only
// when at least ten samples lie beyond it, so a p999 over 1 500 calls is
// refused rather than read off a single outlier.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= 10
}

// median is the 0.5 percentile; any non-empty sample supports it.
func median(sorted []int64) int64 {
	v, _ := percentile(sorted, 0.5)
	return v
}

func sortedCopy(parts ...[]int64) []int64 {
	var out []int64
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quartiles matches Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), the rule the acceptance check applies to ten runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	m := len(d)
	if m == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// the children's intervals are clipped to the span and merged first, so two
// scatter legs running in parallel are subtracted once, not twice.
func selfTime(span interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < span.start {
			c.start = span.start
		}
		if c.end > span.end {
			c.end = span.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered, reach := int64(0), span.start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			covered += c.end - reach
			reach = c.end
		}
	}
	return span.end - span.start - covered
}
