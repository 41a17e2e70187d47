package tdigest

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

func TestEmpty(t *testing.T) {
	d := New(100)
	if !math.IsNaN(d.Quantile(0.5)) {
		t.Error("empty digest quantile should be NaN")
	}
	if !math.IsNaN(d.CDF(1)) {
		t.Error("empty digest CDF should be NaN")
	}
	if d.Count() != 0 {
		t.Error("empty digest count != 0")
	}
}

func TestSingleValue(t *testing.T) {
	d := New(100)
	d.Add(42)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := d.Quantile(q); got != 42 {
			t.Errorf("Quantile(%v) = %v, want 42", q, got)
		}
	}
	if d.Min() != 42 || d.Max() != 42 {
		t.Error("min/max wrong for single value")
	}
}

func TestIgnoresBadInput(t *testing.T) {
	d := New(100)
	d.Add(math.NaN())
	d.AddWeighted(5, 0)
	d.AddWeighted(5, -1)
	if d.Count() != 0 {
		t.Errorf("bad inputs were counted: %v", d.Count())
	}
}

// One infinity used to poison a digest: ten finite values plus two
// +Inf made Quantile(0.99) NaN and Mean +Inf, and AddWeighted(5, +Inf)
// made the median and the mean NaN. Non-finite values and weights are
// ignored like NaN, on AddWeighted and AddAll alike.
func TestIgnoresNonFinite(t *testing.T) {
	inf := math.Inf(1)
	clean, dirty, bulk := New(100), New(100), New(100)
	var xs []float64
	for i := 1; i <= 10; i++ {
		clean.Add(float64(i))
		xs = append(xs, float64(i))
		if i%4 == 0 {
			xs = append(xs, inf, -inf, math.NaN())
		}
	}
	for _, x := range xs {
		dirty.Add(x)
	}
	for _, w := range []float64{inf, -inf, math.NaN(), 0, -1} {
		dirty.AddWeighted(5, w)
		bulk.AddWeighted(5, w)
	}
	if got := bulk.AddAll(xs); got != 10 {
		t.Fatalf("AddAll inserted %d, want 10", got)
	}
	for name, d := range map[string]*TDigest{"Add": dirty, "AddAll": bulk} {
		if d.Count() != 10 || d.Min() != 1 || d.Max() != 10 {
			t.Fatalf("%s: count %v, bounds [%v, %v]; want 10, [1, 10]", name, d.Count(), d.Min(), d.Max())
		}
		for _, q := range []float64{0.5, 0.99} {
			if got, want := d.Quantile(q), clean.Quantile(q); got != want {
				t.Errorf("%s: Quantile(%v) = %v, want %v", name, q, got, want)
			}
		}
		if got, want := d.Mean(), clean.Mean(); got != want {
			t.Errorf("%s: Mean() = %v, want %v", name, got, want)
		}
	}
}

func TestUniformAccuracy(t *testing.T) {
	r := rng.New(1)
	d := New(100)
	n := 100000
	vals := make([]float64, n)
	for i := range vals {
		v := r.Float64() * 1000
		vals[i] = v
		d.Add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := d.Quantile(q)
		want := exactQuantile(vals, q)
		if math.Abs(got-want) > 12 { // 1.2% of range
			t.Errorf("Quantile(%v) = %v, exact %v", q, got, want)
		}
	}
}

func TestLogNormalAccuracy(t *testing.T) {
	r := rng.New(2)
	d := New(200)
	n := 50000
	vals := make([]float64, n)
	for i := range vals {
		v := r.LogNormalMedian(40, 0.6)
		vals[i] = v
		d.Add(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := d.Quantile(q)
		want := exactQuantile(vals, q)
		rel := math.Abs(got-want) / want
		if rel > 0.03 {
			t.Errorf("Quantile(%v) = %v, exact %v (rel err %v)", q, got, want, rel)
		}
	}
}

func TestQuantileMonotonic(t *testing.T) {
	r := rng.New(3)
	d := New(100)
	for i := 0; i < 10000; i++ {
		d.Add(r.Normal(0, 10))
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := d.Quantile(q)
		if v < prev-1e-9 {
			t.Fatalf("quantile not monotonic at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantileWithinBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		d := New(50)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < 500; i++ {
			v := r.Normal(0, 100)
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			d.Add(v)
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := d.Quantile(q)
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCDFInvertsQuantile(t *testing.T) {
	r := rng.New(5)
	d := New(200)
	for i := 0; i < 50000; i++ {
		d.Add(r.Float64() * 100)
	}
	for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		x := d.Quantile(q)
		back := d.CDF(x)
		if math.Abs(back-q) > 0.02 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, back)
		}
	}
}

func TestCDFBounds(t *testing.T) {
	d := New(100)
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if got := d.CDF(0); got != 0 {
		t.Errorf("CDF below min = %v", got)
	}
	if got := d.CDF(200); got != 1 {
		t.Errorf("CDF above max = %v", got)
	}
}

func TestMerge(t *testing.T) {
	r := rng.New(7)
	a, b, all := New(100), New(100), New(100)
	for i := 0; i < 20000; i++ {
		v := r.LogNormalMedian(10, 1)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		all.Add(v)
	}
	a.Merge(b)
	if math.Abs(a.Count()-all.Count()) > 1e-6 {
		t.Errorf("merged count %v, want %v", a.Count(), all.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		ma, mall := a.Quantile(q), all.Quantile(q)
		if math.Abs(ma-mall)/mall > 0.05 {
			t.Errorf("merged Quantile(%v) = %v, combined %v", q, ma, mall)
		}
	}
}

func TestMergeNil(t *testing.T) {
	d := New(100)
	d.Add(1)
	d.Merge(nil) // must not panic
	if d.Count() != 1 {
		t.Error("merge nil changed count")
	}
}

func TestWeightedMedian(t *testing.T) {
	d := New(100)
	// 10 mass at 1, 1 mass at 100: median must be near 1.
	d.AddWeighted(1, 10)
	d.AddWeighted(100, 1)
	if m := d.Quantile(0.5); m > 50 {
		t.Errorf("weighted median = %v, want near 1", m)
	}
}

func TestCompressionBoundsCentroids(t *testing.T) {
	r := rng.New(9)
	d := New(100)
	for i := 0; i < 200000; i++ {
		d.Add(r.Float64())
	}
	means, _ := d.Centroids()
	if len(means) > 300 {
		t.Errorf("too many centroids: %d", len(means))
	}
	// Centroids must be sorted.
	if !sort.Float64sAreSorted(means) {
		t.Error("centroids not sorted")
	}
}

func TestLowCompressionClamped(t *testing.T) {
	d := New(1) // clamps to 20
	for i := 0; i < 1000; i++ {
		d.Add(float64(i))
	}
	med := d.Quantile(0.5)
	if med < 300 || med > 700 {
		t.Errorf("clamped-compression median %v too inaccurate", med)
	}
}

func BenchmarkAdd(b *testing.B) {
	r := rng.New(1)
	d := New(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Add(r.Float64())
	}
}

func BenchmarkQuantile(b *testing.B) {
	r := rng.New(1)
	d := New(100)
	for i := 0; i < 100000; i++ {
		d.Add(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Quantile(0.5)
	}
}

func TestMean(t *testing.T) {
	d := New(100)
	if !math.IsNaN(d.Mean()) {
		t.Error("empty mean should be NaN")
	}
	r := rng.New(31)
	sum, n := 0.0, 50000
	for i := 0; i < n; i++ {
		v := r.LogNormalMedian(10, 1)
		sum += v
		d.Add(v)
	}
	want := sum / float64(n)
	if math.Abs(d.Mean()-want)/want > 1e-9 {
		t.Errorf("Mean = %v, exact %v (must be preserved by merging)", d.Mean(), want)
	}
}

func TestMeanWeighted(t *testing.T) {
	d := New(100)
	d.AddWeighted(1, 3)
	d.AddWeighted(9, 1)
	if got := d.Mean(); got != 3 {
		t.Errorf("weighted mean = %v, want 3", got)
	}
}
