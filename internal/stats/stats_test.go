package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"fortress/internal/xrand"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3, 4, 5} {
		a.Add(x)
	}
	if a.N() != 5 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 3 {
		t.Fatalf("Mean = %v", a.Mean())
	}
	if a.Min() != 1 || a.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
	if math.Abs(a.Variance()-2.5) > 1e-12 {
		t.Fatalf("Variance = %v, want 2.5", a.Variance())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(7)
	if a.Variance() != 0 {
		t.Fatalf("single-sample variance = %v", a.Variance())
	}
	if a.Min() != 7 || a.Max() != 7 {
		t.Fatal("single-sample min/max wrong")
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	prop := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Constrain to a sane range to keep the naive formula stable.
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e6))
			}
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		var sum float64
		for _, x := range xs {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naive := ss / float64(len(xs)-1)
		scale := math.Max(1, naive)
		return math.Abs(a.Variance()-naive) < 1e-6*scale
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryCI(t *testing.T) {
	var a Accumulator
	r := xrand.New(99)
	for i := 0; i < 10000; i++ {
		a.Add(r.Float64())
	}
	s := a.Summarize()
	if !s.Contains(0.5, 3) {
		t.Fatalf("uniform mean CI %v does not contain 0.5", s)
	}
	if s.CI95 <= 0 {
		t.Fatal("CI95 should be positive")
	}
}

func TestSummaryOverlaps(t *testing.T) {
	a := Summary{Mean: 10, CI95: 2}
	b := Summary{Mean: 11, CI95: 0.5}
	c := Summary{Mean: 20, CI95: 1}
	if !a.Overlaps(b) {
		t.Fatal("expected a and b to overlap")
	}
	if a.Overlaps(c) {
		t.Fatal("expected a and c to be disjoint")
	}
	if !a.Overlaps(a) {
		t.Fatal("summary must overlap itself")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Mean: 1.5, CI95: 0.25, N: 10}
	if got := s.String(); got == "" {
		t.Fatal("empty summary string")
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{2, 4, 6})
	if err != nil || m != 4 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
	if _, err := Mean(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be modified.
	if xs[0] != 5 {
		t.Fatal("Quantile modified its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Fatal("want error for q < 0")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Fatal("want error for q > 1")
	}
}

func TestQuantileSingle(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.99)
	if err != nil || got != 42 {
		t.Fatalf("Quantile single = %v, %v", got, err)
	}
}

func TestAccumulatorMinMaxOrderProperty(t *testing.T) {
	prop := func(xs []float64) bool {
		var a Accumulator
		ok := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// Constrain magnitude so the incremental mean cannot lose the
			// min <= mean <= max invariant to floating-point rounding.
			a.Add(math.Mod(x, 1e9))
			ok++
		}
		if ok == 0 {
			return true
		}
		tol := 1e-6 * (math.Abs(a.Min()) + math.Abs(a.Max()) + 1)
		return a.Min() <= a.Mean()+tol && a.Mean() <= a.Max()+tol
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesSequentialProperty: splitting a random observation
// sequence at random points, accumulating each chunk independently and
// folding the chunks with Merge must agree with one sequential pass — N,
// Min and Max exactly, mean and variance to floating-point accuracy. This
// is the reduction the parallel Monte-Carlo engine relies on.
func TestMergeMatchesSequentialProperty(t *testing.T) {
	rng := xrand.New(90210)
	prop := func(seed uint64, nRaw, cutsRaw uint16) bool {
		n := int(nRaw%2000) + 2
		r := xrand.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64()*2000 - 1000
		}

		var sequential Accumulator
		for _, x := range xs {
			sequential.Add(x)
		}

		// Split into 1 + cuts chunks at random boundaries (possibly empty).
		chunks := int(cutsRaw%8) + 1
		var merged Accumulator
		start := 0
		for c := 0; c < chunks; c++ {
			end := n
			if c < chunks-1 {
				end = start + rng.Intn(n-start+1)
			}
			var part Accumulator
			for _, x := range xs[start:end] {
				part.Add(x)
			}
			merged.Merge(part)
			start = end
		}

		if merged.N() != sequential.N() {
			t.Logf("N: merged %d vs sequential %d", merged.N(), sequential.N())
			return false
		}
		if merged.Min() != sequential.Min() || merged.Max() != sequential.Max() {
			t.Logf("min/max: merged %v/%v vs %v/%v",
				merged.Min(), merged.Max(), sequential.Min(), sequential.Max())
			return false
		}
		if !nearlyEqual(merged.Mean(), sequential.Mean(), 1e-9) {
			t.Logf("mean: merged %v vs sequential %v", merged.Mean(), sequential.Mean())
			return false
		}
		if !nearlyEqual(merged.Variance(), sequential.Variance(), 1e-9) {
			t.Logf("variance: merged %v vs sequential %v", merged.Variance(), sequential.Variance())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// nearlyEqual compares with relative tolerance (absolute near zero).
func nearlyEqual(a, b, tol float64) bool {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

func TestMergeEmptyAndZeroValue(t *testing.T) {
	var a, b Accumulator
	a.Merge(b) // zero into zero: still empty
	if a.N() != 0 {
		t.Fatalf("N = %d after empty merge", a.N())
	}
	b.Add(4)
	b.Add(8)
	a.Merge(b) // into zero value: adopts b wholesale
	if a.N() != 2 || a.Mean() != 6 || a.Min() != 4 || a.Max() != 8 {
		t.Fatalf("merge into zero value: %+v", a.Summarize())
	}
	before := a.Summarize()
	a.Merge(Accumulator{}) // empty into populated: no-op
	if a.Summarize() != before {
		t.Fatalf("empty merge changed state: %+v vs %+v", a.Summarize(), before)
	}
}

// TestMergeDeterministicOrder: folding the same shards in the same order is
// bit-identical, run to run — the property the worker pool leans on.
func TestMergeDeterministicOrder(t *testing.T) {
	build := func() Summary {
		rng := xrand.New(5)
		var merged Accumulator
		for s := 0; s < 16; s++ {
			var part Accumulator
			for i := 0; i < 100; i++ {
				part.Add(rng.Float64() * 100)
			}
			merged.Merge(part)
		}
		return merged.Summarize()
	}
	if build() != build() {
		t.Fatal("same shard fold produced different state")
	}
}
