package metrics

// Request-latency histograms for the serving layer's observability
// (per-endpoint p50/p95/p99 in /healthz). A Histogram is a fixed set
// of geometric buckets over lock-free atomic counters, so Observe on
// the hot request path costs one atomic add and never blocks; quantile
// estimation interpolates inside the bucket that crosses the rank,
// which is exact to within one bucket's resolution (a factor of 2).

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latencyBuckets is the bucket count: upper bounds 1µs<<i for
// i in [0, latencyBuckets-1], i.e. 1µs … ~2290s, covering everything
// from a cached registry hit to a pathological full-table build.
// Durations beyond the last bound land in the last bucket.
const latencyBuckets = 32

// bucketBase is the first bucket's upper bound.
const bucketBase = time.Microsecond

// NumBuckets is the number of geometric buckets a Histogram holds,
// exported for renderers (the Prometheus exposition in internal/obs)
// that walk the buckets directly.
const NumBuckets = latencyBuckets

// BucketUpper returns bucket i's inclusive upper bound (1µs << i).
// Indexes outside [0, NumBuckets-1] are clamped.
func BucketUpper(i int) time.Duration {
	if i < 0 {
		i = 0
	}
	if i >= latencyBuckets {
		i = latencyBuckets - 1
	}
	return bucketBase << i
}

// Histogram counts observations in geometric latency buckets. The
// zero value is ready to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [latencyBuckets]atomic.Int64
	total  atomic.Int64
	sumNS  atomic.Int64
}

// bucketOf returns the index of the smallest bucket whose upper bound
// 1µs<<i is >= d.
func bucketOf(d time.Duration) int {
	if d <= bucketBase {
		return 0
	}
	// ceil(d/1µs), then the position of its highest bit: the smallest
	// power of two (in µs) that is >= the duration
	us := uint64((d + bucketBase - 1) / bucketBase)
	i := bits.Len64(us - 1)
	if i >= latencyBuckets {
		return latencyBuckets - 1
	}
	return i
}

// bucketBounds returns bucket i's half-open (lo, hi] duration range.
func bucketBounds(i int) (lo, hi time.Duration) {
	hi = bucketBase << i
	if i > 0 {
		lo = bucketBase << (i - 1)
	}
	return lo, hi
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)].Add(1)
	h.total.Add(1)
	h.sumNS.Add(int64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the total of all observed durations (the _sum series of
// a Prometheus histogram exposition).
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Buckets returns a frozen copy of the per-bucket counts and their
// total. Bucket i counts observations in (BucketUpper(i-1),
// BucketUpper(i)]; durations beyond the last bound land in the last
// bucket. One frozen copy keeps a rendered digest self-consistent
// under concurrent Observes.
func (h *Histogram) Buckets() (counts [NumBuckets]int64, total int64) {
	return h.freeze()
}

// freeze loads every bucket counter once and returns the frozen copy
// plus its total. All quantiles of one digest are computed from one
// frozen copy, so concurrent Observes cannot make p95 > p99 inside a
// single snapshot.
func (h *Histogram) freeze() (counts [latencyBuckets]int64, total int64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// quantileOf estimates the q-quantile (q clamped to [0, 1]) of a
// frozen bucket array by linear interpolation inside the bucket
// containing the rank; 0 when nothing was observed.
func quantileOf(counts [latencyBuckets]int64, total int64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := 0; i < latencyBuckets; i++ {
		n := float64(counts[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - cum) / n
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += n
	}
	// unreachable: rank <= total and the cumulative sum reaches total
	// exactly (bucket counts are integers, exact in float64)
	return 0
}

// Quantile estimates the q-quantile of the observed durations from a
// freshly frozen copy of the counters. For several quantiles of one
// consistent digest, use Summary.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts, total := h.freeze()
	return quantileOf(counts, total, q)
}

// LatencySummary is one histogram's latency digest.
type LatencySummary struct {
	Count         int64
	P50, P95, P99 time.Duration
}

// Summary digests the histogram from one frozen copy of its counters:
// count and all three quantiles describe the same state, so
// p50 ≤ p95 ≤ p99 always holds under concurrent Observes.
func (h *Histogram) Summary() LatencySummary {
	counts, total := h.freeze()
	return LatencySummary{
		Count: total,
		P50:   quantileOf(counts, total, 0.50),
		P95:   quantileOf(counts, total, 0.95),
		P99:   quantileOf(counts, total, 0.99),
	}
}
