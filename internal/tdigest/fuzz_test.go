package tdigest

import (
	"math"
	"testing"
)

// FuzzTDigestMerge splits an arbitrary value stream across two digests,
// merges them, and checks the structural invariants the aggregation
// layer depends on: the merge never loses the extremes, the count is
// exact, and quantiles are monotone in q and bounded by [min, max].
func FuzzTDigestMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9, 8, 7, 6}, uint8(50))
	f.Add([]byte{}, []byte{0, 255}, uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{255, 255, 255, 255}, uint8(255))
	f.Fuzz(func(t *testing.T, a, b []byte, comp uint8) {
		compression := 20 + float64(comp)
		da, db := New(compression), New(compression)
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		feed := func(d *TDigest, raw []byte) {
			for i := 0; i+1 < len(raw); i += 2 {
				v := float64(int16(uint16(raw[i])<<8|uint16(raw[i+1]))) / 8
				d.Add(v)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				n++
			}
		}
		feed(da, a)
		feed(db, b)
		da.Merge(db)
		if n == 0 {
			return
		}
		if got := da.Count(); got != float64(n) {
			t.Fatalf("merged count = %v, want %d", got, n)
		}
		if da.Min() != lo || da.Max() != hi {
			t.Fatalf("merge lost extremes: got [%v, %v], want [%v, %v]",
				da.Min(), da.Max(), lo, hi)
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := da.Quantile(q)
			if math.IsNaN(v) {
				t.Fatalf("Quantile(%v) is NaN with %d points", q, n)
			}
			if v < prev {
				t.Fatalf("quantiles not monotone: Quantile(%v)=%v < previous %v", q, v, prev)
			}
			if v < lo || v > hi {
				t.Fatalf("Quantile(%v)=%v outside data range [%v, %v]", q, v, lo, hi)
			}
			prev = v
		}
	})
}

// FuzzCompactionMatchesReference builds (mean, weight) pairs from
// arbitrary bytes and checks the compaction against the sort.Slice
// reference it replaced: sortCentroids must leave every element, ties
// included, where sort.Slice leaves it, and a digest fed the pairs must
// hold bit-identical centroids to one folded by referenceProcess. Each
// pair takes three bytes: a coarse and a fine signed mean byte and a
// weight byte. The mode byte scales the coarse part, or with bit 3 set
// keeps only four distinct means, so streams range from all ties to
// mostly distinct.
func FuzzCompactionMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1, 1, 0, 1}, uint8(0), uint8(0))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 255, 254, 253}, uint8(3), uint8(20))
	f.Add([]byte{0x80, 0x7f, 0, 0x7f, 0x80, 9, 0, 0, 0, 0x80, 0x7f, 3}, uint8(12), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, mode, comp uint8) {
		scale := math.Ldexp(1, int(mode%8)-4)
		var means, weights []float64
		for i := 0; i+2 < len(raw); i += 3 {
			m := float64(int8(raw[i]))*scale + float64(int8(raw[i+1]))/256
			if mode&8 != 0 {
				m = float64(int8(raw[i]) % 4) // tie-heavy: four distinct means
			}
			means = append(means, m)
			weights = append(weights, float64(raw[i+2]%8+1))
		}
		checkPermutation(t, "fuzz", means)

		got, want := New(20+float64(comp)), New(20+float64(comp))
		for i := range means {
			got.AddWeighted(means[i], weights[i])
			refAdd(want, means[i], weights[i])
		}
		got.Compact()
		referenceProcess(want)
		sameState(t, "fuzz", got, want)
	})
}
