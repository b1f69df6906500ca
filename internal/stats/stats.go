// Package stats provides the summary statistics used to report Monte-Carlo
// lifetime estimates: streaming mean/variance, normal confidence intervals
// and quantiles.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions that need at least one observation.
var ErrEmpty = errors.New("stats: no observations")

// Accumulator computes streaming mean and variance with Welford's algorithm,
// avoiding the catastrophic cancellation of the naive sum-of-squares method.
//
// The zero value is ready to use.
type Accumulator struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge folds another accumulator into a, as if every observation recorded
// by other had been Added to a. It uses the Chan et al. pairwise combination
// of counts, means and M2 sums, which is numerically stable for shards of
// any relative size. Merging is deterministic: folding the same shards in
// the same order always yields bit-identical state, which is what lets the
// parallel Monte-Carlo engine reproduce results independently of worker
// count.
func (a *Accumulator) Merge(other Accumulator) {
	if other.n == 0 {
		return
	}
	if a.n == 0 {
		*a = other
		return
	}
	n := a.n + other.n
	delta := other.mean - a.mean
	a.mean += delta * float64(other.n) / float64(n)
	a.m2 += other.m2 + delta*delta*float64(a.n)*float64(other.n)/float64(n)
	if other.min < a.min {
		a.min = other.min
	}
	if other.max > a.max {
		a.max = other.max
	}
	a.n = n
}

// N returns the number of observations recorded.
func (a *Accumulator) N() uint64 { return a.n }

// Mean returns the sample mean, or 0 if no observations were recorded.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 if none were recorded.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 if none were recorded.
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance. It returns 0 for fewer than
// two observations.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Summary is an immutable snapshot of an Accumulator together with a normal
// 95% confidence half-width for the mean.
type Summary struct {
	N      uint64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval for the mean: 1.96 * stddev / sqrt(n).
	CI95 float64
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N:      a.n,
		Mean:   a.mean,
		StdDev: a.StdDev(),
		Min:    a.min,
		Max:    a.max,
		CI95:   1.96 * a.StdErr(),
	}
}

// String formats the summary as "mean ± ci (n=...)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.3g (n=%d)", s.Mean, s.CI95, s.N)
}

// Overlaps reports whether the 95% confidence intervals of s and t intersect.
// It is the comparison used when cross-checking Monte-Carlo estimates against
// analytic values with an extra tolerance factor.
func (s Summary) Overlaps(t Summary) bool {
	loS, hiS := s.Mean-s.CI95, s.Mean+s.CI95
	loT, hiT := t.Mean-t.CI95, t.Mean+t.CI95
	return loS <= hiT && loT <= hiS
}

// Contains reports whether v lies within the 95% confidence interval widened
// by the multiplicative factor slack (slack = 1 means the plain interval).
func (s Summary) Contains(v, slack float64) bool {
	hw := s.CI95 * slack
	return v >= s.Mean-hw && v <= s.Mean+hw
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return acc.Mean(), nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v outside [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}
