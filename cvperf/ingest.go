package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/table"
)

// The ingest workload: writes beside reads. A streaming table seeded
// with ~100k rows runs under -data-dir with -fsync interval. One
// connection is an open-loop appender sending fixed-size batches on a
// fixed schedule (sensors pushing telemetry) with an explicit refresh
// every ingestRefreshEvery batches, so publication points are
// deterministic; two more are closed-loop queriers answering from the
// live sample. At the end the registry is closed, a new one recovers
// from the same directory, and every acknowledged row must be back.
//
// Two queriers, not one: a single querier's ping-pong with the server
// leaves about one of the two cores idle, and its rate then spread
// widely between runs of the same code on a shared host (README.md,
// Noise).

const (
	ingestBatchRate    = 50 // batches per second
	ingestRefreshEvery = 10 // batches per explicit refresh
)

// ingestQueries are the querier's texts: the AQ2/AQ3/AQ5 shapes the
// stream's (country, parameter, unit) stratification covers.
var ingestQueries = []query{aq2, aq3("23"), aq3("11"), aq5}

// probeStreamConfig is the streaming registration every write path
// uses: the AQ3 stratification at a fixed budget.
func probeStreamConfig(seed int64) ingest.Config {
	return ingest.Config{Queries: toSpecs(specOf("country", "parameter", "unit")), Budget: 2000, Seed: seed}
}

type ingestRun struct {
	cfg      runConfig
	tbl      *table.Table // seed rows followed by every batch, in order
	frame    *frame
	seedCSV  string
	seedRows int
	batch    int
	batches  [][][]any
	texts    []string
	dirs     int
}

// seenAnswer is the first answer to one text at one generation; every
// later answer to the pair must be byte-identical to it.
type seenAnswer struct {
	hash uint64
	resp *apiv1.QueryResponse
}

type genText struct {
	gen  uint64
	text int
}

// ingestPhase is the outcome of one ingest measured phase.
type ingestPhase struct {
	queries  *loopResult
	appends  latencies
	late     latencies
	refresh  latencies
	acked    int // rows in acknowledged batches
	writes   int // acknowledged appends and refreshes
	failed   int
	firstErr error
	answers  map[genText]seenAnswer
}

func runIngest(cfg runConfig) (*report, error) {
	seedRows, batch := 100_000, 200
	if cfg.smoke {
		seedRows, batch = 5_000, 20
	}
	n := int(cfg.seconds.Seconds()*ingestBatchRate) + 1
	tbl, err := genOpenAQTable(seedRows+n*batch, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &ingestRun{cfg: cfg, tbl: tbl, frame: newFrame(tbl), seedRows: seedRows, batch: batch}
	seed := prefix(tbl, seedRows)
	in.seedCSV = filepath.Join(cfg.workdir, "seed.csv")
	if err := seed.SaveCSV(in.seedCSV); err != nil {
		return nil, err
	}
	in.batches = rowsOf(tbl, seedRows, tbl.NumRows(), batch)
	for _, q := range ingestQueries {
		in.texts = append(in.texts, q.SQL(tableName))
	}
	if cfg.trace {
		return traceRun(cfg, "ingest", in)
	}
	return in.measured()
}

// setup boots a durable stack on a fresh data directory and makes the
// loaded seed table live over HTTP.
func (in *ingestRun) setup(ctx context.Context) (*stack, string, error) {
	in.dirs++
	dir := filepath.Join(in.cfg.workdir, fmt.Sprintf("data-%d", in.dirs))
	st, err := startStack(stackConfig{tables: map[string]string{tableName: in.seedCSV},
		dataDir: dir})
	if err != nil {
		return nil, "", err
	}
	pc := probeStreamConfig(in.cfg.seed)
	_, err = st.cl.MakeStreaming(ctx, tableName, apiv1.StreamRequest{
		Queries: specOf("country", "parameter", "unit"), Budget: pc.Budget, Seed: pc.Seed,
		RefreshRows: -1, RefreshInterval: "-1s"})
	if err != nil {
		st.close()
		return nil, "", fmt.Errorf("make streaming: %w", err)
	}
	return st, dir, nil
}

// run drives one phase: the open-loop appender and the closed-loop
// queriers, side by side for d. The replay at every depth (with a
// tracer) runs one querier, as the other workloads' replays do.
func (in *ingestRun) run(ctx context.Context, st *stack, d time.Duration, tr *tracer, lc *layerCounters) *ingestPhase {
	ph := &ingestPhase{answers: map[genText]seenAnswer{}}
	var mu sync.Mutex // guards ph.answers
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	wg.Add(1)
	// the appender's fields of ph are read only after wg.Wait
	go func() {
		defer wg.Done()
		period := time.Second / ingestBatchRate
		for i := 0; i < len(in.batches); i++ {
			due := start.Add(time.Duration(i) * period)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			ph.late.add(time.Since(due))
			_, err := st.cl.AppendRows(ctx, tableName, in.batches[i])
			ph.appends.add(time.Since(due))
			if err == nil {
				ph.writes++
				ph.acked += len(in.batches[i])
				if (i+1)%ingestRefreshEvery == 0 {
					t0 := time.Now()
					_, err = st.cl.Refresh(ctx, tableName)
					ph.refresh.add(time.Since(t0))
					if err == nil {
						ph.writes++
					}
				}
			}
			if err != nil {
				ph.failed++
				ph.firstErr = err
				return
			}
		}
	}()
	queriers := 2
	if tr != nil {
		queriers = 1
	}
	ph.queries = closedLoop(queriers, d, func(i int) (bool, error) {
		k := int(mix(in.cfg.seed, i) % uint64(len(in.texts)))
		var sink bodySink
		var resp *apiv1.QueryResponse
		var err error
		if tr == nil {
			resp, err = st.cl.Query(withSink(ctx, &sink), apiv1.QueryRequest{SQL: in.texts[k], Mode: apiv1.ModeSample})
		} else {
			resp, err = layerQuery(ctx, st, tr, lc, i, ingestQueries[k], apiv1.ModeSample)
		}
		if err != nil {
			return true, err
		}
		key := genText{resp.Generation, k}
		mu.Lock()
		defer mu.Unlock()
		prev, ok := ph.answers[key]
		switch {
		case !ok:
			ph.answers[key] = seenAnswer{hash: sink.hash, resp: resp}
		case tr == nil && prev.hash != sink.hash:
			return true, fmt.Errorf("answer to %q at generation %d differs from the first", in.texts[k], resp.Generation)
		}
		return true, nil
	})
	wg.Wait()
	return ph
}

// score checks every distinct (generation, text) answer against the
// exact answer over the rows that generation covers: the seed plus
// every batch before its refresh.
func (in *ingestRun) score(r *report, ph *ingestPhase) (es *errStats, wrong int) {
	es = &errStats{}
	for key, a := range ph.answers {
		n := in.seedRows + int(key.gen-1)*ingestRefreshEvery*in.batch
		truth, err := in.frame.groupBy(ingestQueries[key.text], min(n, in.tbl.NumRows()))
		if err == nil {
			err = es.score(fmt.Sprintf("q%d@gen%d", key.text, key.gen), truth, a.resp)
		}
		if err != nil {
			wrong++
			r.fail("answer to %q at generation %d: %v", in.texts[key.text], key.gen, err)
		}
	}
	return es, wrong
}

func (in *ingestRun) measured() (*report, error) {
	ctx := context.Background()
	r := &report{correct: true}
	var dir string
	st, setupS, base, err := setUp(func() (*stack, error) {
		st, d, err := in.setup(ctx)
		dir = d
		return st, err
	})
	if err != nil {
		return nil, err
	}
	ph := in.run(ctx, st, in.cfg.seconds, nil, nil)
	es, wrong := in.score(r, ph)
	r.add("setup_s", median(setupS), "s", len(setupS))
	queryMetrics(r, ph.queries)
	// the kept answers and per-query records grow with the run; with
	// them dropped the heap reading is the stack's alone
	ph.answers, ph.queries.lat, ph.queries.done = nil, nil, nil
	heap := liveHeapMB() - base
	// the workload's own data must be live at both readings, so the
	// difference is the stack's
	runtime.KeepAlive(in)

	// restart: close the registry, recover a new one from the same
	// directory, and serve the first query off it
	closeErr := st.close()
	t0 := time.Now()
	st2, err := startStack(stackConfig{dataDir: dir})
	if err != nil {
		return nil, errors.Join(closeErr, err)
	}
	defer st2.close()
	_, qerr := st2.cl.Query(ctx, apiv1.QueryRequest{SQL: in.texts[0], Mode: apiv1.ModeSample})
	recovery := time.Since(t0)
	want := in.seedRows + ph.acked
	status, ok := st2.reg.StreamStatus(tableName)
	r.attempted++
	switch {
	case closeErr != nil || qerr != nil:
		r.failed++
		r.fail("restart: close %v, first query %v", closeErr, qerr)
	case !ok || status.Rows != want:
		r.failed++
		r.fail("recovered %d rows, %d were acknowledged", status.Rows, want)
	}

	r.failed += wrong
	es.report(r)
	r.add("heap_live_mb", heap, "MiB", 1)
	in.writeMetrics(r, ph)
	r.add("recovery_s", recovery.Seconds(), "s", 1)
	r.note("fsync policy %s on both sides; %d rows acknowledged and %d recovered; replayed %d WAL records",
		fsyncPolicy, want, status.Rows, st2.recovery.ReplayedRecords)
	return r, nil
}

// writeMetrics adds the appender's figures and counts its ops.
func (in *ingestRun) writeMetrics(r *report, ph *ingestPhase) {
	r.add("append_p50_ms", percentile(ph.appends.ms, 50), "ms", len(ph.appends.ms))
	r.add("append_p99_ms", percentile(ph.appends.ms, 99), "ms", len(ph.appends.ms))
	r.add("append_late_p99_ms", percentile(ph.late.ms, 99), "ms", len(ph.late.ms))
	r.add("refresh_p50_ms", median(ph.refresh.ms), "ms", len(ph.refresh.ms))
	r.attempted += ph.writes + ph.failed
	r.failed += ph.failed
	if ph.firstErr != nil {
		r.note("first failed append or refresh: %v", ph.firstErr)
	}
}

// start sets a fresh durable stack up (tracedWorkload).
func (in *ingestRun) start(ctx context.Context, r *report) (*stack, error) {
	st, _, err := in.setup(ctx)
	return st, err
}

// phase runs the appender and the querier for d, the querier at every
// depth with a tracer, and scores the answers; the returned result
// counts the appends among its ops (tracedWorkload).
func (in *ingestRun) phase(ctx context.Context, r *report, st *stack, d time.Duration, tr *tracer, lc *layerCounters) *loopResult {
	ph := in.run(ctx, st, d, tr, lc)
	_, wrong := in.score(r, ph)
	res := ph.queries
	res.attempted += ph.writes + ph.failed
	res.failed += ph.failed + wrong
	return res
}

// probes runs the build probe on the stream's spec and the write probe
// on this workload's own seed and batches (tracedWorkload).
func (in *ingestRun) probes(ctx context.Context, r *report, tr *tracer, lc *layerCounters, st *stack) error {
	pc := probeStreamConfig(in.cfg.seed)
	if err := buildProbe(ctx, tr, lc, st.reg, st.tables[tableName], [][]core.QuerySpec{pc.Queries}, pc.Budget, in.cfg.seed); err != nil {
		return err
	}
	nb := min(len(in.batches), 100)
	return writeProbe(ctx, r, tr, in.cfg.workdir, prefix(in.tbl, in.seedRows), in.batches[:nb], pc, ingestRefreshEvery)
}
