package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loopResult summarizes one closed-loop phase.
type loopResult struct {
	ops       int // queries
	attempted int // every op
	failed    int
	firstErr  error
	elapsed   time.Duration
	lat       []float64       // each query's latency in ms
	done      []time.Duration // completion time of each query, since the start
}

func (l *loopResult) qps() float64 { return float64(l.ops) / l.elapsed.Seconds() }

// windows is how many equal time windows a phase is cut into for its
// query rate and median latency: one second each at the benchmark's
// 30-second run length, shorter than the gaps between ingest's WAL
// checkpoints, so the median window is a steady-state window.
const windows = 30

// windowed returns the median over the phase's time windows of the
// query rate and of the 50th and 90th percentile query latency. A burst
// of interference from outside the benchmark moves a few windows, not
// the median of them.
func (l *loopResult) windowed() (qps, p50, p90 float64) {
	rates, p50s, p90s := l.windows()
	return median(rates), median(p50s), median(p90s)
}

// windows returns each window's query rate and 50th and 90th
// percentile latency.
func (l *loopResult) windows() (rates, p50s, p90s []float64) {
	width := l.elapsed / windows
	lat := make([][]float64, windows)
	for i, at := range l.done {
		w := min(int(at/width), windows-1)
		lat[w] = append(lat[w], l.lat[i])
	}
	for _, ms := range lat {
		rates = append(rates, float64(len(ms))/width.Seconds())
		if len(ms) > 0 {
			p50s = append(p50s, percentile(ms, 50))
			p90s = append(p90s, percentile(ms, 90))
		}
	}
	return rates, p50s, p90s
}

// closedLoop runs `workers` clients that each take the next op index
// of the shared sequence, run it, and wait for its answer before taking
// another, until d has passed. An op reports whether it was a query;
// queries are counted and their latencies recorded (other ops time
// themselves). An op that returns an error counts as failed.
func closedLoop(workers int, d time.Duration, op func(i int) (bool, error)) *loopResult {
	res := &loopResult{}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				isQuery, err := op(i)
				end := time.Now()
				mu.Lock()
				if isQuery {
					res.ops++
					res.lat = append(res.lat, ms(end.Sub(t0)))
					res.done = append(res.done, end.Sub(start))
				}
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// queryMetrics adds the closed-loop query figures: rate, median and
// 90th percentile as medians over the phase's windows, the 99th
// percentile over every query.
func queryMetrics(r *report, res *loopResult) {
	qps, p50, p90 := res.windowed()
	r.add("query_p50_ms", p50, "ms", len(res.lat))
	r.add("query_p90_ms", p90, "ms", len(res.lat))
	r.add("query_p99_ms", percentile(res.lat, 99), "ms", len(res.lat))
	r.add("queries_per_s", qps, "1/s", res.ops)
	rates, _, _ := res.windows()
	q1, q3 := quartiles(rates)
	r.note("query rate over %d windows: median %.4g/s, quartiles %.4g and %.4g (spread %.3f)",
		windows, qps, q1, q3, (q3-q1)/qps)
	r.attempted += res.attempted
	r.failed += res.failed
	if res.firstErr != nil {
		r.note("first failed query: %v", res.firstErr)
	}
}
