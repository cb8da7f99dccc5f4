package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the nearest-rank q-quantile of xs, which it sorts in place.
// Failed requests enter as +Inf and so count against every percentile
// they reach.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// quartiles are the three cut points of xs by Python's
// statistics.quantiles(xs, n=4) ("exclusive" method), the spread
// definition BENCHMARK.json bounds are checked with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	cut := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
