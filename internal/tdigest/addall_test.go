package tdigest

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// AddAll must be state-identical to the same values through Add one at
// a time — same centroids, same buffer, same bounds — because the
// columnar aggregation path relies on that identity for byte-identical
// reports. The slice lengths straddle the 8×compression process()
// trigger so both the buffered and compacted regimes are compared.
func TestAddAllMatchesAddLoop(t *testing.T) {
	for _, n := range []int{0, 1, 100, 799, 800, 801, 5000} {
		r := rng.ChildAt(42, "addall", n)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
			switch i % 97 {
			case 13:
				xs[i] = math.NaN() // AddAll must skip these like Add does
			case 50:
				xs[i] = math.Inf(1 - 2*(i%2)) // and these
			}
		}

		one, bulk := New(100), New(100)
		adds := 0
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				adds++
			}
			one.Add(x)
		}
		if got := bulk.AddAll(xs); got != adds {
			t.Fatalf("n=%d: AddAll inserted %d, want %d", n, got, adds)
		}

		if one.Count() != bulk.Count() {
			t.Fatalf("n=%d: Count %v vs %v", n, one.Count(), bulk.Count())
		}
		if adds > 0 && (one.Min() != bulk.Min() || one.Max() != bulk.Max()) {
			t.Fatalf("n=%d: bounds (%v,%v) vs (%v,%v)", n, one.Min(), one.Max(), bulk.Min(), bulk.Max())
		}
		m1, w1 := one.Centroids()
		m2, w2 := bulk.Centroids()
		if len(m1) != len(m2) {
			t.Fatalf("n=%d: %d centroids vs %d — compaction points diverged", n, len(m1), len(m2))
		}
		for i := range m1 {
			if m1[i] != m2[i] || w1[i] != w2[i] {
				t.Fatalf("n=%d: centroid %d differs: (%v,%v) vs (%v,%v)", n, i, m1[i], w1[i], m2[i], w2[i])
			}
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			a, b := one.Quantile(q), bulk.Quantile(q)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("n=%d: Quantile(%v) %v vs %v", n, q, a, b)
			}
		}
	}
}

// Chunked AddAll calls interleaved with single Adds must still be
// identical to the flat Add loop: the batch path flushes per cell, so
// mixed feeding is the production pattern.
func TestAddAllChunked(t *testing.T) {
	r := rng.New(7).Child("addall-chunks")
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = r.Normal(0, 1)
	}
	one, mixed := New(50), New(50)
	for _, x := range xs {
		one.Add(x)
	}
	for i := 0; i < len(xs); {
		c := r.IntN(200) + 1
		if i+c > len(xs) {
			c = len(xs) - i
		}
		if c%3 == 0 {
			for _, x := range xs[i : i+c] {
				mixed.Add(x)
			}
		} else {
			mixed.AddAll(xs[i : i+c])
		}
		i += c
	}
	m1, w1 := one.Centroids()
	m2, w2 := mixed.Centroids()
	if len(m1) != len(m2) {
		t.Fatalf("%d centroids vs %d", len(m1), len(m2))
	}
	for i := range m1 {
		if m1[i] != m2[i] || w1[i] != w2[i] {
			t.Fatalf("centroid %d differs", i)
		}
	}
}
