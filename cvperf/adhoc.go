package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/table"
)

// The adhoc workload: an exploring analyst. Two closed-loop clients
// send exact-mode group-bys whose predicate literals are drawn fresh
// for every op, so no text repeats and every request parses and
// compiles a new plan over the full table. Every buildEvery-th op is
// instead a new sample build with a fresh seed; the sample budget holds
// only a few of those samples, so older ones are evicted.

const buildEvery = 24

// adhocBuildSpecs are the stratifications build ops rotate through.
var adhocBuildSpecs = [][]string{
	{"country", "parameter", "unit"},
	{"country", "month", "year"},
	{"country", "parameter", "year"},
	{"parameter", "hour"},
}

// adhocBuildRate sizes each build; the resident sample budget holds
// adhocResident of them (a sample row is charged 64 bytes on the
// OpenAQ schema: row id, weight, three dictionary codes, five numbers).
const (
	adhocBuildRate = 0.004
	adhocResident  = 3
	sampleRowBytes = 64
)

// adhocOp is one op of the sequence: an exact query, or a build of
// spec with a fresh seed.
type adhocOp struct {
	q     query
	sql   string
	build bool
	spec  int
	seed  int64
}

// adhocGen generates the op sequence. Op i is a pure function of the
// seed and i, so the generator keeps nothing that grows with the ops
// sent: the op index fills the trailing digits of the query's float
// literal, which keeps every text distinct without remembering them.
type adhocGen struct {
	seed      int64
	countries []string
	params    []string
}

func newAdhocGen(seed int64, countries, params []string) *adhocGen {
	return &adhocGen{seed: seed, countries: countries, params: params}
}

func (g *adhocGen) op(i int) adhocOp {
	r := rand.New(rand.NewSource(int64(mix(g.seed, i) >> 1)))
	if i%buildEvery == buildEvery-1 {
		return adhocOp{build: true, spec: (i / buildEvery) % len(adhocBuildSpecs), seed: r.Int63()}
	}
	q := g.draw(r, i)
	return adhocOp{q: q, sql: q.SQL(tableName)}
}

// draw picks a query family and fresh literals for it. Every family
// has one float literal (the latitude or the COUNT_IF threshold), drawn
// to three or four decimals and followed by op i's index in seven or
// more digits.
func (g *adhocGen) draw(r *rand.Rand, i int) query {
	hours := func() pred {
		a := r.Intn(24)
		return pred{Col: "hour", Op: "between", Lo: fmt.Sprint(a), Hi: fmt.Sprint(a + r.Intn(24-a))}
	}
	lat := pred{Col: "latitude", Op: ">", Lit: fmt.Sprintf("%.3f%07d", -40+100*r.Float64(), i)}
	threshold := fmt.Sprintf("%.4f%07d", math.Exp(math.Log(0.01)+r.Float64()*math.Log(5000)), i)
	switch r.Intn(4) {
	case 0:
		return query{GroupBy: []string{"country", "parameter"},
			Aggs:  []agg{{Fn: "AVG", Col: "value"}, {Fn: "COUNT"}},
			Where: []pred{hours(), lat}}
	case 1:
		return query{GroupBy: []string{"country", "month", "year"},
			Aggs:  []agg{{Fn: "AVG", Col: "value"}, {Fn: "SUM", Col: "value"}},
			Where: []pred{{Col: "parameter", Op: "=", Lit: g.params[r.Intn(len(g.params))], Str: true}, lat}}
	case 2:
		return query{GroupBy: []string{"parameter", "unit"},
			Aggs:  []agg{{Fn: "COUNT_IF", Col: "value", Lit: threshold}, {Fn: "SUM", Col: "value"}},
			Where: []pred{{Col: "country", Op: "=", Lit: g.countries[r.Intn(len(g.countries))], Str: true}, hours()}}
	}
	a := 1 + r.Intn(12)
	return query{GroupBy: []string{"country"},
		Aggs: []agg{{Fn: "AVG", Col: "value"}, {Fn: "COUNT_IF", Col: "value", Lit: threshold}},
		Where: []pred{{Col: "year", Op: "=", Lit: fmt.Sprint(2015 + r.Intn(4))},
			{Col: "month", Op: "between", Lo: fmt.Sprint(a), Hi: fmt.Sprint(a + r.Intn(13-a))}}}
}

// exactAnswer is one exact answer kept for checking after the phase,
// compacted to a key digest and the aggregate values per group so that
// keeping hundreds of them barely moves the live heap.
type exactAnswer struct {
	op   int
	keys []uint64
	vals []float64 // len(keys) × aggregates, row-major
	err  error     // the response was malformed
}

func compactAnswer(op int, resp *apiv1.QueryResponse) exactAnswer {
	a := exactAnswer{op: op}
	got, err := indexResponse(resp)
	if err != nil {
		a.err = err
		return a
	}
	for k, g := range got {
		a.keys = append(a.keys, keyDigest(k))
		for _, v := range g.Aggs {
			if v == nil {
				a.vals = append(a.vals, math.NaN())
			} else {
				a.vals = append(a.vals, *v)
			}
		}
	}
	return a
}

// keyDigest is the FNV-64a digest of a group key.
func keyDigest(k string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(k))
	return h.Sum64()
}

// compare checks the kept answer against the exact truth.
func (a exactAnswer) compare(truth answer) error {
	if a.err != nil {
		return a.err
	}
	if len(a.keys) != len(truth) {
		return fmt.Errorf("%d groups, want %d", len(a.keys), len(truth))
	}
	at := make(map[uint64]int, len(a.keys))
	for i, k := range a.keys {
		at[k] = i
	}
	for k, want := range truth {
		i, ok := at[keyDigest(k)]
		if !ok {
			return fmt.Errorf("missing group %q", k)
		}
		got := a.vals[i*len(want) : (i+1)*len(want)]
		for j, w := range want {
			if !(math.Abs(got[j]-w) <= exactTol*math.Max(1, math.Abs(w))) {
				return fmt.Errorf("group %q aggregate %d: got %v, want %v", k, j, got[j], w)
			}
		}
	}
	return nil
}

type adhoc struct {
	cfg    runConfig
	tbl    *table.Table
	frame  *frame
	csv    string
	gen    *adhocGen
	budget int

	mu      sync.Mutex
	answers []exactAnswer
	builds  latencies
}

func runAdhoc(cfg runConfig) (*report, error) {
	rows := 1_000_000
	if cfg.smoke {
		rows = 30_000
	}
	tbl, csv, err := genOpenAQ(rows, cfg.seed, cfg.workdir)
	if err != nil {
		return nil, err
	}
	a := &adhoc{cfg: cfg, tbl: tbl, frame: newFrame(tbl), csv: csv,
		budget: int(adhocBuildRate * float64(rows))}
	a.gen = newAdhocGen(cfg.seed, a.frame.labels["country"], a.frame.labels["parameter"])
	if cfg.trace {
		return traceRun(cfg, "adhoc", a)
	}
	return a.measured()
}

func (a *adhoc) setup() (*stack, error) {
	return startStack(stackConfig{tables: map[string]string{tableName: a.csv},
		maxSampleBytes: int64(adhocResident * a.budget * sampleRowBytes)})
}

// op runs op i: an exact query, kept for checking, or a build.
func (a *adhoc) op(ctx context.Context, st *stack, tr *tracer, lc *layerCounters, i int) (bool, error) {
	o := a.gen.op(i)
	if !o.build {
		var resp *apiv1.QueryResponse
		var err error
		if tr == nil {
			resp, err = st.cl.Query(ctx, apiv1.QueryRequest{SQL: o.sql, Mode: apiv1.ModeExact})
		} else {
			resp, err = layerQuery(ctx, st, tr, lc, i, o.q, apiv1.ModeExact)
		}
		if err != nil {
			return true, err
		}
		c := compactAnswer(i, resp)
		a.mu.Lock()
		a.answers = append(a.answers, c)
		a.mu.Unlock()
		return true, nil
	}
	t0 := time.Now()
	_, err := st.cl.BuildSample(ctx, apiv1.BuildRequest{Table: tableName,
		Queries: specOf(adhocBuildSpecs[o.spec]...), Budget: a.budget, Seed: o.seed})
	a.builds.add(time.Since(t0))
	if err != nil {
		return false, fmt.Errorf("build: %w", err)
	}
	return false, nil
}

// check compares every kept exact answer with the benchmark's own
// group-by over the generated rows, on two workers, then drops them.
// It returns how many were wrong.
func (a *adhoc) check(r *report) int {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next int
	wrong := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				k := next
				next++
				mu.Unlock()
				if k >= len(a.answers) {
					return
				}
				ans := a.answers[k]
				o := a.gen.op(ans.op)
				truth, err := a.frame.groupBy(o.q, a.tbl.NumRows())
				if err == nil {
					err = ans.compare(truth)
				}
				if err != nil {
					mu.Lock()
					wrong++
					r.fail("exact answer to %q: %v", o.sql, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	r.note("checked %d exact answers against the benchmark's own group-by (relative tolerance %g)",
		len(a.answers), exactTol)
	a.answers = nil
	return wrong
}

func (a *adhoc) measured() (*report, error) {
	ctx := context.Background()
	r := &report{correct: true}
	st, setupS, base, err := setUp(a.setup)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := a.phase(ctx, r, st, a.cfg.seconds, nil, nil)
	evictions := st.reg.Evictions()
	r.add("setup_s", median(setupS), "s", len(setupS))
	queryMetrics(r, res)
	r.add("build_p50_ms", median(a.builds.ms), "ms", len(a.builds.ms))
	r.note("%d builds, %d evictions", len(a.builds.ms), evictions)
	// the per-op records grow with throughput; with them dropped the
	// heap reading is the stack's alone (the exact answers went in check)
	res.lat, res.done, a.builds.ms = nil, nil, nil
	r.add("heap_live_mb", liveHeapMB()-base, "MiB", 1)
	// the workload's own data must be live at both readings, so the
	// difference is the stack's
	runtime.KeepAlive(a)
	if evictions == 0 {
		r.note("no sample was evicted: the working set fit the sample budget")
	}
	return r, nil
}

// start sets a fresh stack up (tracedWorkload).
func (a *adhoc) start(ctx context.Context, r *report) (*stack, error) { return a.setup() }

// phase runs the op sequence for d: two clients, or with a tracer one
// client with every query at every depth; then it checks the exact
// answers (tracedWorkload).
func (a *adhoc) phase(ctx context.Context, r *report, st *stack, d time.Duration, tr *tracer, lc *layerCounters) *loopResult {
	workers := 2
	if tr != nil {
		workers = 1
	}
	res := closedLoop(workers, d, func(i int) (bool, error) { return a.op(ctx, st, tr, lc, i) })
	res.failed += a.check(r)
	return res
}

// probes runs the build probe on the build specs and the write probe
// on the adhoc rows (tracedWorkload).
func (a *adhoc) probes(ctx context.Context, r *report, tr *tracer, lc *layerCounters, st *stack) error {
	specs := make([][]core.QuerySpec, len(adhocBuildSpecs))
	for i, s := range adhocBuildSpecs {
		specs[i] = toSpecs(specOf(s...))
	}
	if err := buildProbe(ctx, tr, lc, st.reg, st.tables[tableName], specs, a.budget, a.cfg.seed); err != nil {
		return err
	}
	return probeOnRows(ctx, r, tr, a.cfg, a.tbl)
}
