package tdigest

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/rng"
)

// referenceProcess is the compaction as it stood before the package
// owned its sort: sort.Slice over an index slice, fresh output arrays.
// It is kept verbatim as the oracle that process must match bit for bit,
// since every rendered report is a function of the centroids it leaves.
func referenceProcess(t *TDigest) {
	if len(t.bufMeans) == 0 {
		return
	}
	means := append(t.means, t.bufMeans...)
	weights := append(t.weights, t.bufWeights...)
	t.bufMeans = t.bufMeans[:0]
	t.bufWeights = t.bufWeights[:0]
	total := t.total + t.bufTotal
	t.bufTotal = 0

	idx := make([]int, len(means))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return means[idx[a]] < means[idx[b]] })

	outM := make([]float64, 0, int(t.compression)*2)
	outW := make([]float64, 0, int(t.compression)*2)

	soFar := 0.0
	curM, curW := means[idx[0]], weights[idx[0]]
	qLimit := t.kInv(t.k(0) + 1)
	for _, i := range idx[1:] {
		m, w := means[i], weights[i]
		projected := (soFar + curW + w) / total
		if projected <= qLimit {
			curM += (m - curM) * w / (curW + w)
			curW += w
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		soFar += curW
		qLimit = t.kInv(t.k(soFar/total) + 1)
		curM, curW = m, w
	}
	outM = append(outM, curM)
	outW = append(outW, curW)

	t.means, t.weights, t.total = outM, outW, total
}

// refAdd is AddWeighted with the fold done by referenceProcess.
func refAdd(t *TDigest, x, w float64) {
	if !finite(x) || !(w > 0 && w <= math.MaxFloat64) {
		return
	}
	t.bufMeans = append(t.bufMeans, x)
	t.bufWeights = append(t.bufWeights, w)
	t.bufTotal += w
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if len(t.bufMeans) >= int(8*t.compression) {
		referenceProcess(t)
	}
}

// refMerge is Merge with the folds done by referenceProcess.
func refMerge(t, other *TDigest) {
	referenceProcess(other)
	for i := range other.means {
		refAdd(t, other.means[i], other.weights[i])
	}
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
}

// clone deep-copies a digest, buffer included.
func clone(t *TDigest) *TDigest {
	c := *t
	c.means = append([]float64(nil), t.means...)
	c.weights = append([]float64(nil), t.weights...)
	c.bufMeans = append([]float64(nil), t.bufMeans...)
	c.bufWeights = append([]float64(nil), t.bufWeights...)
	return &c
}

// sameState fails unless got and want hold bit-identical centroids,
// totals and bounds; callers compact both first.
func sameState(t *testing.T, name string, got, want *TDigest) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.total) != bits(want.total) || bits(got.min) != bits(want.min) || bits(got.max) != bits(want.max) {
		t.Fatalf("%s: total/min/max (%v,%v,%v), reference (%v,%v,%v)",
			name, got.total, got.min, got.max, want.total, want.min, want.max)
	}
	if len(got.means) != len(want.means) {
		t.Fatalf("%s: %d centroids, reference %d", name, len(got.means), len(want.means))
	}
	for i := range got.means {
		if bits(got.means[i]) != bits(want.means[i]) || bits(got.weights[i]) != bits(want.weights[i]) {
			t.Fatalf("%s: centroid %d is (%v,%v), reference (%v,%v)",
				name, i, got.means[i], got.weights[i], want.means[i], want.weights[i])
		}
	}
}

// checkPermutation sorts means with sortCentroids and with sort.Slice
// over an index slice (what process used to do) and fails unless both
// leave every element, ties included, at the same position. Each pair
// carries its input index as its weight so the permutation is visible.
func checkPermutation(t *testing.T, name string, means []float64) {
	t.Helper()
	pairs := make([]centroid, len(means))
	idx := make([]int, len(means))
	for i, m := range means {
		pairs[i] = centroid{m, float64(i)}
		idx[i] = i
	}
	sortCentroids(pairs)
	sort.Slice(idx, func(a, b int) bool { return means[idx[a]] < means[idx[b]] })
	for i := range idx {
		if pairs[i].w != float64(idx[i]) {
			t.Fatalf("%s (n=%d): position %d holds input %v, sort.Slice puts input %d there",
				name, len(means), i, pairs[i].w, idx[i])
		}
	}
}

// adversary returns McIlroy's "killer adversary" input of length n for
// the sort.Slice pdqsort: it lets each comparison decide values lazily
// so that pivots come out as bad as possible. Fed back in, the input
// drives pdqsort through breakPatterns and into its heapsort fallback.
// Each run of tie consecutive values it fixes gets one value, so with
// tie > 1 the heapsort sees equal means and its tie order is checked
// too.
func adversary(n, tie int) []float64 {
	gas := float64(n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = gas
	}
	solid, candidate := 0, -1
	freeze := func(x int) {
		vals[x] = float64(solid / tie)
		solid++
	}
	ptr := make([]int, n)
	for i := range ptr {
		ptr[i] = i
	}
	sort.Slice(ptr, func(a, b int) bool {
		x, y := ptr[a], ptr[b]
		if vals[x] == gas && vals[y] == gas {
			if x == candidate {
				freeze(x)
			} else {
				freeze(y)
			}
		}
		if vals[x] == gas {
			candidate = x
		} else if vals[y] == gas {
			candidate = y
		}
		return vals[x] < vals[y]
	})
	return vals
}

// sortPatterns are the inputs the permutation and compaction oracles
// run over: random, tie-heavy and the classic adversarial shapes that
// steer pdqsort into partialInsertionSort, partitionEqual,
// breakPatterns and heapsort.
func sortPatterns(n int) map[string][]float64 {
	r := rng.ChildAt(13, "pdqsort-patterns", n)
	ps := map[string][]float64{}
	add := func(name string, f func(i int) float64) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		ps[name] = xs
	}
	add("random", func(int) float64 { return r.Float64() * 100 })
	add("binary", func(int) float64 { return float64(r.IntN(2)) })
	add("small-ints", func(int) float64 { return float64(r.IntN(8)) })
	add("hd-ratios", func(int) float64 {
		// Per-session HD ratios: k of m transactions, m small.
		m := r.IntN(6) + 1
		return float64(r.IntN(m+1)) / float64(m)
	})
	add("sorted", func(i int) float64 { return float64(i) })
	add("reversed", func(i int) float64 { return float64(n - i) })
	add("all-equal", func(int) float64 { return 3.5 })
	add("organ-pipe", func(i int) float64 { return float64(min(i, n-1-i)) })
	add("sawtooth", func(i int) float64 { return float64(i % 7) })
	add("nearly-sorted", func(i int) float64 {
		if r.IntN(20) == 0 {
			return r.Float64() * float64(n)
		}
		return float64(i)
	})
	ps["adversary"] = adversary(n, 1)
	ps["adversary-ties"] = adversary(n, 4)
	return ps
}

var patternSizes = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 49, 50, 51, 100, 1000, 20000}

func TestSortCentroidsMatchesSortSlice(t *testing.T) {
	for _, n := range patternSizes {
		for name, means := range sortPatterns(n) {
			checkPermutation(t, name, means)
		}
	}
}

// Whole streams through AddWeighted, folding at the usual 8δ trigger,
// must leave exactly the reference's centroids. Weights vary so that
// the fold's weighted arithmetic is exercised, not only its order.
func TestProcessMatchesReference(t *testing.T) {
	for _, comp := range []float64{20, 100, 200} {
		for _, n := range patternSizes {
			for name, xs := range sortPatterns(n) {
				r := rng.ChildAt(5, name, n)
				got, want := New(comp), New(comp)
				for _, x := range xs {
					w := 1.0
					if name == "random" || name == "hd-ratios" {
						w = float64(r.IntN(4) + 1)
					}
					got.AddWeighted(x, w)
					refAdd(want, x, w)
				}
				got.Compact()
				referenceProcess(want)
				sameState(t, name, got, want)
				// Merge's in-place self-merge relies on this bound.
				if len(got.means) >= int(8*comp) {
					t.Fatalf("%s: a fold left %d centroids, not fewer than 8δ", name, len(got.means))
				}
			}
		}
	}
}

// A shard merge feeds already-weighted centroids into another digest's
// buffer; the merged digest must match the reference merge exactly.
func TestMergeMatchesReference(t *testing.T) {
	for _, name := range []string{"random", "hd-ratios", "binary", "organ-pipe"} {
		got, want := New(100), New(100)
		for s := 0; s < 8; s++ {
			xs := sortPatterns(3000 + 100*s)[name]
			a, b := New(100), New(100)
			for _, x := range xs {
				a.Add(x)
				refAdd(b, x, 1)
			}
			got.Merge(a)
			refMerge(want, b)
		}
		got.Compact()
		referenceProcess(want)
		sameState(t, name, got, want)
	}
}

// A self-merge doubles the count and equals merging a compacted clone.
func TestSelfMergeEqualsCloneMerge(t *testing.T) {
	r := rng.New(3).Child("self-merge")
	d := New(100)
	for i := 0; i < 5000; i++ {
		d.Add(math.Round(r.Normal(10, 3)))
	}
	d.Compact()
	count := d.Count()
	twin := clone(d)
	twin.Merge(clone(d))
	d.Merge(d)
	if d.Count() != 2*count {
		t.Fatalf("self-merge count %v, want %v", d.Count(), 2*count)
	}
	d.Compact()
	twin.Compact()
	sameState(t, "self-merge", d, twin)
}

// A self-merge whose adds fill the buffer folds into the very arrays
// Merge is iterating. The state below (more centroids than a fold
// leaves) is built by hand so that folds run mid-loop; the result must
// still equal merging a clone.
func TestSelfMergeFoldsMidLoop(t *testing.T) {
	d := New(20) // buffer limit 160
	for i := 0; i < 400; i++ {
		d.means = append(d.means, float64(i))
		d.weights = append(d.weights, 1)
	}
	d.total, d.min, d.max = 400, 0, 399
	twin := clone(d)
	twin.Merge(clone(d))
	d.Merge(d)
	if d.Count() != 800 {
		t.Fatalf("self-merge count %v, want 800", d.Count())
	}
	d.Compact()
	twin.Compact()
	sameState(t, "self-merge fold", d, twin)
}

// Compactions on many goroutines at once share the scratch pool; each
// digest must still come out as if compacted alone.
func TestConcurrentCompaction(t *testing.T) {
	xs := sortPatterns(5000)["hd-ratios"]
	feed := func(d *TDigest) {
		for i := 0; i < len(xs); i += 100 {
			d.AddAll(xs[i : i+100])
			d.Compact()
		}
	}
	want := New(100)
	feed(want)
	var wg sync.WaitGroup
	got := make([]*TDigest, 4)
	for g := range got {
		got[g] = New(100)
		wg.Add(1)
		go func(d *TDigest) {
			defer wg.Done()
			feed(d)
		}(got[g])
	}
	wg.Wait()
	for _, d := range got {
		sameState(t, "concurrent", d, want)
	}
}
