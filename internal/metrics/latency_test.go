package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 90 fast observations in one bucket, 10 slow ones well above:
	// p50 must sit in the fast bucket, p99 in the slow one
	for i := 0; i < 90; i++ {
		h.Observe(100 * time.Microsecond) // bucket (64µs, 128µs]
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond) // bucket (64ms, 128ms]
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 <= 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Fatalf("p50 = %v, want within (64µs, 128µs]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 64*time.Millisecond || p99 > 128*time.Millisecond {
		t.Fatalf("p99 = %v, want within (64ms, 128ms]", p99)
	}
	if p95 := h.Quantile(0.95); p95 < p50 || p95 > p99 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	// out-of-range q clamps instead of panicking
	if lo, hi := h.Quantile(-1), h.Quantile(2); lo > hi {
		t.Fatalf("clamped quantiles inverted: %v > %v", lo, hi)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// sub-microsecond and zero land in bucket 0; absurdly large
	// durations land in the last bucket instead of indexing past it
	var h Histogram
	h.Observe(0)
	h.Observe(time.Nanosecond)
	h.Observe(1000 * time.Hour)
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if q := h.Quantile(1); q <= 0 {
		t.Fatalf("max quantile = %v, want > 0", q)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	if sum := h.Summary(); sum != (LatencySummary{}) {
		t.Fatalf("empty histogram summary = %+v", sum)
	}
	h.Observe(2 * time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(50 * time.Microsecond)
	sum := h.Summary()
	if sum.Count != 3 || sum.P50 <= 0 || sum.P95 < sum.P50 || sum.P99 < sum.P95 {
		t.Fatalf("summary implausible: %+v", sum)
	}
}

// Concurrent observers must not race (run with -race) and must not
// lose counts; every summary taken meanwhile stays ordered.
func TestHistogramSummaryConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(1+i%1000) * time.Microsecond)
				if i%50 == 0 {
					if sum := h.Summary(); sum.P50 > sum.P95 || sum.P95 > sum.P99 {
						t.Errorf("unordered summary under concurrency: %+v", sum)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := h.Summary().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}
