// Package tdigest implements the merging t-digest of Dunning & Ertl
// ("Computing Extremely Accurate Quantiles Using t-Digests",
// arXiv:1902.04023), the streaming quantile sketch the paper cites for
// computing percentiles and confidence intervals in near real time
// (§3.4.1, footnote 11).
//
// The digest maintains a set of centroids whose sizes are bounded by the
// k1 scale function, which concentrates resolution near the tails while
// keeping memory bounded by the compression parameter. Aggregations in
// this repository use a digest per (user group, window, route, metric).
package tdigest

import (
	"math"
	"slices"
	"sync"
)

// TDigest is a streaming quantile sketch. The zero value is not usable;
// call New.
type TDigest struct {
	compression float64

	// Processed centroids, sorted by mean.
	means   []float64
	weights []float64
	total   float64

	// Unprocessed points buffered until the next merge.
	bufMeans   []float64
	bufWeights []float64
	bufTotal   float64

	min, max float64
}

// DefaultCompression trades ~1KB of state for roughly 0.1–1% quantile
// error at the median and much better accuracy at the tails.
const DefaultCompression = 100

// New returns an empty digest with the given compression (δ). Larger
// compression means more centroids and better accuracy.
func New(compression float64) *TDigest {
	if compression < 20 {
		compression = 20
	}
	return &TDigest{
		compression: compression,
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add inserts a value with weight 1.
func (t *TDigest) Add(x float64) { t.AddWeighted(x, 1) }

// AddWeighted inserts a value with the given weight. Non-finite values
// (NaN, ±Inf) and weights that are not finite and positive are
// ignored: one infinity would turn every later quantile and the mean
// into NaN or ±Inf.
func (t *TDigest) AddWeighted(x, w float64) {
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
		t.process()
	}
}

// AddAll inserts every value of xs with weight 1 and returns the
// number inserted (non-finite values are skipped, like Add). It is
// state-identical to calling Add in a loop — values append to the same
// buffer and the fold triggers at exactly the same points — just
// without the per-call overhead, so digests fed by the columnar batch
// path match digests fed row-at-a-time bit for bit.
func (t *TDigest) AddAll(xs []float64) int {
	limit := int(8 * t.compression)
	// The buffer never holds more than limit points (the fold empties
	// it in place), so one growth covers the whole call.
	if grow := min(len(t.bufMeans)+len(xs), limit) - len(t.bufMeans); grow > 0 {
		t.bufMeans = slices.Grow(t.bufMeans, grow)
		t.bufWeights = slices.Grow(t.bufWeights, grow)
	}
	added := 0
	for _, x := range xs {
		if !finite(x) {
			continue
		}
		t.bufMeans = append(t.bufMeans, x)
		t.bufWeights = append(t.bufWeights, 1)
		t.bufTotal++
		added++
		if x < t.min {
			t.min = x
		}
		if x > t.max {
			t.max = x
		}
		if len(t.bufMeans) >= limit {
			t.process()
		}
	}
	return added
}

// Count returns the total weight added.
func (t *TDigest) Count() float64 { return t.total + t.bufTotal }

// Min returns the smallest value added, or +Inf if empty.
func (t *TDigest) Min() float64 { return t.min }

// Max returns the largest value added, or -Inf if empty.
func (t *TDigest) Max() float64 { return t.max }

// Merge folds other into t — the mergeability property (§3.4.1,
// footnote 11) that lets shard-local aggregations combine into a global
// one. Centroids carry their accumulated weight across, so Count and
// Mean are preserved exactly and quantiles stay within the usual
// compression tolerance. The other digest is compacted but its contents
// are unchanged; merging nil is a no-op.
func (t *TDigest) Merge(other *TDigest) {
	if other == nil {
		return
	}
	other.process()
	// A fold writes its centroids into t's own arrays, so in a
	// self-merge the loop reads arrays its adds may fold into. It reads
	// them through the slices taken here, and a fold rewrites only
	// entries already read: it comes after 8δ adds and leaves fewer
	// than 8δ centroids.
	means, weights := other.means, other.weights
	for i := range means {
		t.AddWeighted(means[i], weights[i])
	}
	// Centroid means never reach the extremes, so the true min/max must
	// carry over explicitly or the merged digest's tails collapse to the
	// outermost centroids.
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
}

// Compact folds any buffered points into the centroid set. Adds are
// buffered for speed, and every read path (Quantile, CDF, Mean, ...)
// triggers the fold lazily — a hidden mutation that makes concurrent
// reads a data race. After Compact, reads are pure until the next Add
// or Merge, so a compacted digest may be shared by concurrent readers;
// the aggregation store seals every digest this way before the analysis
// fan-out.
func (t *TDigest) Compact() { t.process() }

// k1 scale function and its inverse, mapping quantile space to k space.
func (t *TDigest) k(q float64) float64 {
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

func (t *TDigest) kInv(k float64) float64 {
	return (math.Sin(k*2*math.Pi/t.compression) + 1) / 2
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// scratchPool holds the (mean, weight) scratch that process sorts.
// Compaction runs on many goroutines at once (shard workers, the
// overview fold, the analyses), and a scratch grows only to the
// largest fold it has served.
var scratchPool = sync.Pool{New: func() any { return new([]centroid) }}

// process merges buffered points into the centroid set. The centroids
// and the buffer are copied into one pooled pair slice and sorted by
// mean with sortCentroids, whose permutation (ties included) is
// sort.Slice's; the fold below is order-sensitive among equal means,
// so that permutation is part of the digest's output. The merged
// centroids are written back into the digest's own arrays, which the
// copy has retired.
func (t *TDigest) process() {
	if len(t.bufMeans) == 0 {
		return
	}
	scratch := scratchPool.Get().(*[]centroid)
	pairs := (*scratch)[:0]
	for i, m := range t.means {
		pairs = append(pairs, centroid{m, t.weights[i]})
	}
	for i, m := range t.bufMeans {
		pairs = append(pairs, centroid{m, t.bufWeights[i]})
	}
	t.bufMeans = t.bufMeans[:0]
	t.bufWeights = t.bufWeights[:0]
	total := t.total + t.bufTotal
	t.bufTotal = 0

	sortCentroids(pairs)

	outM, outW := t.means[:0], t.weights[:0]
	if cap(outM) == 0 {
		// A digest's first fold sizes its arrays to what it has seen:
		// most per-cell digests never hold more than a few points.
		size := min(len(pairs), int(t.compression)*2)
		outM, outW = make([]float64, 0, size), make([]float64, 0, size)
	}

	soFar := 0.0
	curM, curW := pairs[0].m, pairs[0].w
	qLimit := t.kInv(t.k(0) + 1)
	for _, c := range pairs[1:] {
		m, w := c.m, c.w
		projected := (soFar + curW + w) / total
		if projected <= qLimit {
			// Merge into the current centroid.
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
	*scratch = pairs
	scratchPool.Put(scratch)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]).
// It returns NaN for an empty digest.
func (t *TDigest) Quantile(q float64) float64 {
	t.process()
	if t.total == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	if len(t.means) == 1 {
		return t.means[0]
	}

	target := q * t.total
	// Walk centroids tracking the cumulative weight at each centroid's
	// midpoint, interpolating linearly between midpoints.
	cum := 0.0
	for i := range t.means {
		mid := cum + t.weights[i]/2
		if target < mid {
			if i == 0 {
				// Between min and the first centroid midpoint.
				lo, hi := t.min, t.means[0]
				frac := target / mid
				return lo + (hi-lo)*frac
			}
			prevMid := cum - t.weights[i-1]/2
			frac := (target - prevMid) / (mid - prevMid)
			return t.means[i-1] + (t.means[i]-t.means[i-1])*frac
		}
		cum += t.weights[i]
	}
	// Between the last centroid midpoint and max.
	lastMid := t.total - t.weights[len(t.weights)-1]/2
	frac := (target - lastMid) / (t.total - lastMid)
	if frac > 1 {
		frac = 1
	}
	last := t.means[len(t.means)-1]
	return last + (t.max-last)*frac
}

// CDF returns an estimate of the fraction of mass at or below x.
func (t *TDigest) CDF(x float64) float64 {
	t.process()
	if t.total == 0 {
		return math.NaN()
	}
	if x < t.min {
		return 0
	}
	if x >= t.max {
		return 1
	}
	if len(t.means) == 1 {
		// Single centroid: interpolate across [min, max].
		if t.max == t.min {
			return 1
		}
		return (x - t.min) / (t.max - t.min)
	}
	cum := 0.0
	for i := range t.means {
		if x < t.means[i] {
			if i == 0 {
				if t.means[0] == t.min {
					return 0
				}
				return (x - t.min) / (t.means[0] - t.min) * (t.weights[0] / 2) / t.total
			}
			prevMid := cum - t.weights[i-1]/2
			mid := cum + t.weights[i]/2
			frac := (x - t.means[i-1]) / (t.means[i] - t.means[i-1])
			return (prevMid + frac*(mid-prevMid)) / t.total
		}
		cum += t.weights[i]
	}
	return 1
}

// Mean returns the exact weighted mean of all values added (NaN when
// empty). Unlike quantiles, the mean is preserved exactly by centroid
// merging.
func (t *TDigest) Mean() float64 {
	t.process()
	if t.total == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range t.means {
		sum += t.means[i] * t.weights[i]
	}
	return sum / t.total
}

// Centroids returns copies of the centroid means and weights, mainly for
// testing and debugging.
func (t *TDigest) Centroids() (means, weights []float64) {
	t.process()
	return append([]float64(nil), t.means...), append([]float64(nil), t.weights...)
}
