package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: p99 is reported only when ten samples exceed it, otherwise
// the highest whole percentile that has ten.
const minBeyond = 10

// tail is one reported percentile: which percentile it is, its value and
// the sample count behind it.
type tail struct {
	Pct   int     // whole percentile, 0 when too few samples for any
	Value float64 // in the samples' unit
	N     int
}

// tailPct returns the highest whole percentile up to 99 that has at least
// minBeyond of the n samples strictly above its nearest-rank position.
// It returns 0 when n is too small for any percentile.
func tailPct(n int) int {
	for p := 99; p >= 1; p-- {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the nearest-rank position (1-based) of percentile p in n samples.
func rank(p, n int) int {
	return int(math.Ceil(float64(p) / 100 * float64(n)))
}

// percentile returns the nearest-rank percentile p of sorted samples, 0
// for none: a metric that does not apply to a workload reads 0.
func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := rank(p, len(sorted))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// summarize sorts samples in place and returns their median and tail.
func summarize(samples []float64) (median, high tail) {
	sort.Float64s(samples)
	n := len(samples)
	median = tail{Pct: 50, Value: percentile(samples, 50), N: n}
	p := tailPct(n)
	high = tail{Pct: p, N: n}
	if p > 0 {
		high.Value = percentile(samples, p)
	}
	return median, high
}

// medianOf returns the median of xs without modifying it, 0 for none.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
