package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the module's public function. Spans of one op share Op; a
// span's Parent is the span of the enclosing call (0 = none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. One that is off
// records nothing: the same calls run without their spans.
type tracer struct {
	off   bool
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end(id) closes it.
func (t *tracer) begin(name string, parent, op int) int {
	if t.off {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t.off {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed records fn as one span.
func (t *tracer) timed(name string, parent, op int, fn func()) {
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanMS is the mean duration of the named spans in milliseconds, or 0
// when none were recorded.
func (t *tracer) meanMS(name string) float64 {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds))
}

// counts returns how many spans of each name were closed, sorted by name.
func (t *tracer) counts() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := map[string]int{}
	for _, s := range t.spans {
		if s.End > 0 {
			n[s.Name]++
		}
	}
	var out []string
	for name, c := range n {
		out = append(out, fmt.Sprintf("%s=%d", name, c))
	}
	sort.Strings(out)
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans writes the run's spans next to the build outputs, where
// they outlive the run's scratch directory.
func writeSpans(r *report, tr *tracer, cfg runConfig, name string) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("cvperf-spans-%s-%d.jsonl", name, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	r.note("spans written to %s (%v)", path, tr.counts())
	return nil
}

// tracedWorkload is what the traced run needs from a workload.
type tracedWorkload interface {
	// start sets a fresh stack up, ready for the op sequence.
	start(ctx context.Context, r *report) (*stack, error)
	// phase runs the seeded op sequence for d and checks its answers.
	// Without a tracer it is the workload as measured; with one it is
	// the replay at every depth, recording spans around every layer
	// call unless the tracer is off.
	phase(ctx context.Context, r *report, st *stack, d time.Duration, tr *tracer, lc *layerCounters) *loopResult
	// probes runs the build and write probes on the workload's own
	// build specs and rows.
	probes(ctx context.Context, r *report, tr *tracer, lc *layerCounters, st *stack) error
}

// traceRun is the traced run, in three phases of a third of the run
// length, each on a fresh stack. The first runs the workload as
// measured: it gives the runtime deltas and the evictions. The second replays the same
// op sequence at every depth with one client and the spans off; the
// third replays it again with the spans on, and the probes follow. The
// query rates of the two replays, which differ only by the spans, give
// the tracing overhead. End-to-end numbers never come from here.
func traceRun(cfg runConfig, name string, w tracedWorkload) (*report, error) {
	ctx := context.Background()
	r := &report{correct: true}
	third := cfg.seconds / 3

	st, err := w.start(ctx, r)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	plain := w.phase(ctx, r, st, third, nil, nil)
	runtimeReport(r, rt0, readRuntime(), plain.attempted)
	r.add("registry.evictions", float64(st.reg.Evictions()), "count", 0)
	if err := st.close(); err != nil {
		return nil, err
	}

	if st, err = w.start(ctx, r); err != nil {
		return nil, err
	}
	bare := w.phase(ctx, r, st, third, &tracer{off: true}, newLayerCounters(st))
	if err := st.close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	if st, err = w.start(ctx, r); err != nil {
		return nil, err
	}
	defer st.close()
	lc := newLayerCounters(st)
	traced := w.phase(ctx, r, st, third, tr, lc)
	for _, res := range []*loopResult{plain, bare, traced} {
		r.attempted += res.attempted
		r.failed += res.failed
		if res.firstErr != nil {
			r.note("first failed op: %v", res.firstErr)
		}
	}
	r.add("trace.qps_ratio", traced.qps()/bare.qps(), "ratio", traced.ops)
	r.add("table.load_s", st.loadTime.Seconds(), "s", 1)
	if err := w.probes(ctx, r, tr, lc, st); err != nil {
		return nil, err
	}
	layerReport(r, tr, lc, st)
	buildProbeReport(r, tr)
	return r, writeSpans(r, tr, cfg, name)
}
