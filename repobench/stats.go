package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the set of percentiles a tail is chosen from: the tail
// reported is the highest of them with at least ten samples beyond it.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest ladder percentile that n samples
// support with at least ten beyond it. Fewer than 20 samples support none;
// the tail is then the maximum, percentile 100, and says so.
func tailPercentile(n int) float64 {
	p := 100.0
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			p = q
		}
	}
	return p
}

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// quantile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100).
// xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rank(p, len(s)) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), which moves less between runs than a nearest rank.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// dist is a timing distribution reported as a median and a tail.
type dist struct {
	p50, tail float64
	tailP     float64
	n         int
}

// summarize reports xs as its median and its tail percentile. Failed
// operations enter xs as +Inf, so they miss any latency limit; a reported
// percentile that lands on one reads as ceiling instead.
func summarize(xs []float64, ceiling float64) dist {
	d := dist{n: len(xs), tailP: tailPercentile(len(xs))}
	if d.n == 0 {
		d.p50, d.tail = math.NaN(), math.NaN()
		return d
	}
	fin := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return ceiling
		}
		return v
	}
	d.p50 = fin(median(xs))
	d.tail = fin(quantile(xs, d.tailP))
	return d
}

func (d dist) String() string {
	return fmt.Sprintf("n=%d p50=%.4g tail=p%g=%.4g (%d samples beyond)",
		d.n, d.p50, d.tailP, d.tail, d.n-rank(d.tailP, d.n))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
