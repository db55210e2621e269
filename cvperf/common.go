package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
	"repro/internal/wal"
)

// setupRuns is how many times a run sets its stack up; setup_s is the
// median.
const setupRuns = 5

// setUp runs setup setupRuns times, timing each and closing every
// stack but the last, which it returns with the live heap read before
// the first set-up: the baseline heap_live_mb subtracts, taken while no
// stack, closed or not, can still be reachable.
func setUp(setup func() (*stack, error)) (st *stack, seconds []float64, base float64, err error) {
	base = liveHeapMB()
	for k := 0; k < setupRuns; k++ {
		if st != nil {
			err := st.close()
			st = nil
			if err != nil {
				return nil, nil, 0, err
			}
		}
		t0 := time.Now()
		if st, err = setup(); err != nil {
			return nil, nil, 0, err
		}
		seconds = append(seconds, time.Since(t0).Seconds())
	}
	return st, seconds, base, nil
}

// tableName is the name every workload serves its OpenAQ table under.
const tableName = "OpenAQ"

// mix hashes (seed, i) to a uniform 64-bit value (splitmix64), so op i
// of a sequence is a pure function of the seed and its index.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// genOpenAQ generates the synthetic OpenAQ rows for a seed and writes
// them as the CSV the stack loads.
func genOpenAQ(rows int, seed int64, dir string) (*table.Table, string, error) {
	tbl, err := genOpenAQTable(rows, seed)
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("openaq-%d.csv", rows))
	return tbl, path, tbl.SaveCSV(path)
}

// genOpenAQTable generates the synthetic OpenAQ rows for a seed.
func genOpenAQTable(rows int, seed int64) (*table.Table, error) {
	return datagen.OpenAQ(datagen.OpenAQConfig{Rows: rows, Seed: seed})
}

// latencies collects per-op latencies from concurrent workers.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, ms(d))
	l.mu.Unlock()
}

// errStats scores sampled answers against the truth: per-estimate
// relative error, and whether the truth lies within ±2·SE.
type errStats struct {
	errs       []float64
	withSE     int
	covered    int
	missing    int
	worst      float64
	worstWhere string
}

// score compares one sampled answer with its exact truth. A group the
// sample missed scores relative error 1 on each aggregate; a group the
// truth lacks is a wrong answer.
func (s *errStats) score(label string, truth answer, resp *apiv1.QueryResponse) error {
	got, err := indexResponse(resp)
	if err != nil {
		return err
	}
	for k := range got {
		if _, ok := truth[k]; !ok {
			return fmt.Errorf("%s: answer has group %q the data does not", label, k)
		}
	}
	for k, want := range truth {
		g, ok := got[k]
		for j, t := range want {
			e := 1.0
			if ok && g.Aggs[j] != nil {
				est := *g.Aggs[j]
				e = metrics.RelativeError(t, est)
				if len(g.SE) > j && g.SE[j] != nil {
					s.withSE++
					if math.Abs(est-t) <= 2*(*g.SE[j])+1e-9*math.Abs(t) {
						s.covered++
					}
				}
			}
			if !ok {
				s.missing++
			}
			s.errs = append(s.errs, e)
			if e > s.worst || s.worstWhere == "" {
				s.worst = e
				s.worstWhere = fmt.Sprintf("%s group=[%s] agg=%s", label,
					strings.ReplaceAll(k, "\x00", " "), resp.AggLabels[j])
			}
		}
	}
	return nil
}

func (s *errStats) report(r *report) {
	r.add("answer_err_mean", mean(s.errs), "ratio", len(s.errs))
	r.add("answer_err_max", s.worst, "ratio", len(s.errs))
	r.add("se_coverage", float64(s.covered)/float64(max(s.withSE, 1)), "ratio", s.withSE)
	r.note("answer_err_max at %s; %d of %d estimates were groups the sample missed",
		s.worstWhere, s.missing, len(s.errs))
}

// indexResponse keys a response's groups like the truth (groupKey).
func indexResponse(resp *apiv1.QueryResponse) (map[string]apiv1.Group, error) {
	out := make(map[string]apiv1.Group, len(resp.Groups))
	for _, g := range resp.Groups {
		if g.Set < 0 || g.Set >= len(resp.Sets) {
			return nil, fmt.Errorf("group with unknown set %d", g.Set)
		}
		if len(g.Aggs) != len(resp.AggLabels) {
			return nil, fmt.Errorf("group has %d aggregates, labels %d", len(g.Aggs), len(resp.AggLabels))
		}
		out[groupKey(resp.Sets[g.Set], g.Key)] = g
	}
	return out, nil
}

// exactTol is the relative tolerance exact answers must meet: the
// server and the benchmark may sum in different orders.
const exactTol = 1e-9

// layerCounters collects the traced replay's counts next to its spans.
type layerCounters struct {
	mu             sync.Mutex
	httpAllocs     []float64 // one per traced query
	respBytes      float64
	rowsScanned    float64
	groups         float64
	finds          int
	findHits       int
	clientCompiles int64 // plans compiled during the client calls

	fallbacks0 int64 // the registry's fallback counter when the replay started
}

func newLayerCounters(st *stack) *layerCounters {
	return &layerCounters{fallbacks0: fallbacks(st)}
}

// fallbacks reads the registry's interpreter-fallback counter.
func fallbacks(st *stack) int64 {
	return st.reg.Obs().Counter(serve.MetricPlanFallbacks, "").Value()
}

// layerQuery runs one query op at every depth, each call in its own
// span under the op's root span: the typed client over loopback,
// Server.ServeHTTP, Registry.Query, and the parse / find / compile /
// execute leaves. ServeHTTP and Registry.Query each get the query
// under its own alias, a text the plan cache keys apart, so each depth
// compiles exactly when the client's call does: on every op of a
// workload that never repeats a text, on none of one that does. It
// returns the client's answer.
func layerQuery(ctx context.Context, st *stack, tr *tracer, lc *layerCounters, op int, q query, mode string) (*apiv1.QueryResponse, error) {
	root := tr.begin("op.query", 0, op)
	defer tr.end(root)
	var resp *apiv1.QueryResponse
	var err error
	var sink bodySink
	req := apiv1.QueryRequest{SQL: q.SQL(tableName), Mode: mode}
	// one query is in flight (the replay runs one client), so the
	// compiles counted across the call are the call's own
	c0 := st.reg.PlanCompiles()
	tr.timed("client.query", root, op, func() { resp, err = st.cl.Query(withSink(ctx, &sink), req) })
	compiled := st.reg.PlanCompiles() - c0
	if err != nil {
		return nil, err
	}
	var body []byte
	httpReq := apiv1.QueryRequest{SQL: q.aliasedSQL(tableName, "depth_http"), Mode: mode}
	tr.timed("client.encode", root, op, func() { body, err = json.Marshal(httpReq) })
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	hreq := httptest.NewRequest("POST", apiv1.Path(apiv1.RouteQuery), bytes.NewReader(body))
	hreq.Header.Set("Content-Type", "application/json")
	a0 := heapObjects()
	tr.timed("serve.http", root, op, func() { st.app.ServeHTTP(rec, hreq) })
	allocs := float64(heapObjects() - a0)
	if rec.Code != 200 {
		return nil, fmt.Errorf("ServeHTTP status %d: %s", rec.Code, rec.Body.String())
	}
	var out apiv1.QueryResponse
	tr.timed("client.decode", root, op, func() { err = json.NewDecoder(bytes.NewReader(rec.Body.Bytes())).Decode(&out) })
	if err != nil {
		return nil, err
	}
	smode := serve.ModeAuto
	switch mode {
	case apiv1.ModeSample:
		smode = serve.ModeSample
	case apiv1.ModeExact:
		smode = serve.ModeExact
	}
	regSQL := q.aliasedSQL(tableName, "depth_registry")
	tr.timed("registry.query", root, op, func() { _, err = st.reg.Query(ctx, regSQL, serve.QueryOptions{Mode: smode}) })
	if err != nil {
		return nil, err
	}
	var pq *sqlparse.Query
	tr.timed("sqlparse.parse", root, op, func() { pq, err = sqlparse.Parse(req.SQL) })
	if err != nil {
		return nil, err
	}
	tbl, ok := st.reg.Table(pq.From)
	if !ok {
		return nil, fmt.Errorf("table %q not registered", pq.From)
	}
	var rows []int32
	var weights []float64
	found := false
	if smode != serve.ModeExact {
		var e *serve.Entry
		tr.timed("registry.find", root, op, func() { e, found = st.reg.Find(tbl.Name, pq.GroupBy) })
		if found {
			rows, weights = e.Sample.Rows, e.Sample.Weights
		}
	}
	var p *plan.Plan
	tr.timed("plan.compile", root, op, func() { p, err = plan.Compile(tbl, pq) })
	if err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	if rows != nil {
		n = len(rows)
	}
	var groups int
	tr.timed("plan.execute", root, op, func() {
		res, xerr := p.Execute(tbl, rows, weights)
		err = xerr
		if res != nil {
			groups = len(res.Rows)
		}
	})
	if err != nil {
		return nil, err
	}
	lc.mu.Lock()
	lc.httpAllocs = append(lc.httpAllocs, allocs)
	lc.rowsScanned += float64(n)
	lc.groups += float64(groups)
	lc.respBytes += float64(sink.bytes)
	lc.clientCompiles += compiled
	if smode != serve.ModeExact {
		lc.finds++
		if found {
			lc.findHits++
		}
	}
	lc.mu.Unlock()
	return resp, nil
}

// layerReport turns the traced spans and counters into the per-layer
// metrics every workload shares.
func layerReport(r *report, tr *tracer, lc *layerCounters, st *stack) {
	queries := len(lc.httpAllocs)
	hits := 1 - float64(lc.clientCompiles)/float64(max(queries, 1))
	r.add("client.query_ms", tr.meanMS("client.query"), "ms", len(tr.durations("client.query")))
	r.add("client.encode_us", 1000*tr.meanMS("client.encode"), "us", len(tr.durations("client.encode")))
	r.add("client.decode_ms", tr.meanMS("client.decode"), "ms", len(tr.durations("client.decode")))
	r.add("client.resp_kb", lc.respBytes/1024/math.Max(float64(queries), 1), "KiB", queries)
	r.add("serve.http_ms", tr.meanMS("serve.http"), "ms", len(tr.durations("serve.http")))
	r.add("serve.http_allocs", mean(lc.httpAllocs), "count", queries)
	r.add("registry.query_ms", tr.meanMS("registry.query"), "ms", len(tr.durations("registry.query")))
	r.add("registry.find_us", 1000*tr.meanMS("registry.find"), "us", len(tr.durations("registry.find")))
	r.add("registry.find_hit_ratio", float64(lc.findHits)/float64(max(lc.finds, 1)), "ratio", lc.finds)
	r.add("registry.plan_hit_ratio", hits, "ratio", queries)
	r.add("sqlparse.parse_us", 1000*tr.meanMS("sqlparse.parse"), "us", len(tr.durations("sqlparse.parse")))
	r.add("plan.compile_us", 1000*tr.meanMS("plan.compile"), "us", len(tr.durations("plan.compile")))
	r.add("plan.execute_ms", tr.meanMS("plan.execute"), "ms", len(tr.durations("plan.execute")))
	r.add("plan.rows_per_group", lc.rowsScanned/math.Max(lc.groups, 1), "rows", queries)
	r.add("exec.fallbacks", float64(fallbacks(st)-lc.fallbacks0), "count", 0)

	// the depth breakdown of one query as a client sees it; the
	// registry compiles on the share of queries that miss its plan cache
	client := tr.meanMS("client.query")
	clientSelf := tr.meanMS("client.encode") + tr.meanMS("client.decode")
	httpMS := tr.meanMS("serve.http")
	regMS := tr.meanMS("registry.query")
	find, parse, execute := tr.meanMS("registry.find"), tr.meanMS("sqlparse.parse"), tr.meanMS("plan.execute")
	compile := (1 - hits) * tr.meanMS("plan.compile")
	r.note("depth breakdown of client.query_ms %.4f ms: client self (encode+decode) %.4f, serve.http self %.4f, registry self %.4f, registry.find %.4f, sqlparse.parse %.4f, plan.compile on plan-cache misses %.4f, plan.execute %.4f, unexplained remainder (loopback transport, connection handling) %.4f",
		client, clientSelf, httpMS-regMS, regMS-find-parse-compile-execute, find, parse, compile, execute, client-clientSelf-httpMS)
}

// buildProbe times the registry's build path and the core phases it
// runs, on the workload's own build specs: Registry.Build with a fresh
// seed (so it really builds), a Registry.Find the new sample covers,
// then core.NewPlan / Allocate / Sample.
func buildProbe(ctx context.Context, tr *tracer, lc *layerCounters, reg *serve.Registry, tbl *table.Table, specs [][]core.QuerySpec, budget int, seed int64) error {
	for i, spec := range specs {
		var err error
		tr.timed("registry.build", 0, -1, func() {
			_, _, err = reg.Build(ctx, serve.BuildRequest{Table: tbl.Name, Queries: spec, Budget: budget,
				Seed: int64(mix(seed, 1000+i) >> 2)})
		})
		if err != nil {
			return fmt.Errorf("registry build: %w", err)
		}
		var found bool
		tr.timed("registry.find", 0, -1, func() { _, found = reg.Find(tbl.Name, spec[0].GroupBy) })
		lc.finds++
		if found {
			lc.findHits++
		}
		var p *core.Plan
		tr.timed("core.newplan", 0, -1, func() { p, err = core.NewPlan(tbl, spec) })
		if err != nil {
			return err
		}
		tr.timed("core.allocate", 0, -1, func() { _, err = p.Allocate(budget, core.Options{}) })
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(int64(mix(seed, 2000+i) >> 2)))
		tr.timed("core.sample", 0, -1, func() { _, _, err = p.Sample(budget, core.Options{}, rng) })
		if err != nil {
			return err
		}
	}
	return nil
}

func buildProbeReport(r *report, tr *tracer) {
	r.add("registry.build_ms", tr.meanMS("registry.build"), "ms", len(tr.durations("registry.build")))
	r.add("core.newplan_ms", tr.meanMS("core.newplan"), "ms", len(tr.durations("core.newplan")))
	r.add("core.allocate_ms", tr.meanMS("core.allocate"), "ms", len(tr.durations("core.allocate")))
	r.add("core.sample_ms", tr.meanMS("core.sample"), "ms", len(tr.durations("core.sample")))
}

// writeProbe drives the write-path layers over a seed table and a
// sequence of row batches, refreshing every refreshEvery batches:
// a standalone ingest.Stream with its own WAL (ingest.append /
// ingest.refresh, WAL bytes per row), a durable registry's streaming
// table (registry.append / registry.refresh, Table.Snapshot, WAL
// segments), and a fresh registry recovering it (wal.replay), whose
// row count must match what was appended.
func writeProbe(ctx context.Context, r *report, tr *tracer, dir string, seedTbl *table.Table, batches [][][]any, cfg ingest.Config, refreshEvery int) error {
	cfg.Policy = ingest.Policy{MaxPending: -1, Interval: -1}
	logDir := filepath.Join(dir, "probe-wal")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	log, err := wal.Open(logDir, wal.Options{Policy: fsyncPolicy})
	if err != nil {
		return err
	}
	s, err := ingest.New(seedTbl, cfg, func(*ingest.Publication) {})
	if err != nil {
		log.Close()
		return err
	}
	s.SetWAL(log)
	defer log.Close()
	defer s.Close() // runs first: stop the stream before its log

	dataDir := filepath.Join(dir, "probe-data")
	popts := serve.PersistOptions{Dir: dataDir, Fsync: fsyncPolicy}
	reg := serve.NewRegistry(serve.WithPersistence(popts))
	defer reg.Close()
	if err := reg.RegisterStreamingTable(seedTbl, cfg); err != nil {
		return err
	}
	// each batch goes to both, back to back, so the two see the same
	// machine state and their difference is the registry's own time
	appended := 0
	for i, b := range batches {
		refresh := (i+1)%refreshEvery == 0
		tr.timed("ingest.append", 0, -1, func() { _, err = s.Append(b) })
		if err == nil && refresh {
			tr.timed("ingest.refresh", 0, -1, func() { _, err = s.Refresh() })
		}
		if err != nil {
			return fmt.Errorf("standalone stream: %w", err)
		}
		tr.timed("registry.append", 0, -1, func() { _, err = reg.Append(seedTbl.Name, b) })
		if err == nil && refresh {
			tr.timed("registry.refresh", 0, -1, func() { _, err = reg.Refresh(seedTbl.Name) })
		}
		if err != nil {
			return fmt.Errorf("registry stream: %w", err)
		}
		appended += len(b)
	}
	walBytes := log.SizeBytes()
	if snap, ok := reg.Table(seedTbl.Name); ok {
		for i := 0; i < 16; i++ {
			tr.timed("table.snapshot", 0, -1, func() { snap.Snapshot() })
		}
	}
	ps, _ := reg.PersistenceStatus()
	reg.Close() // flushes and checkpoints; the deferred Close is then a no-op
	reg2 := serve.NewRegistry(serve.WithPersistence(popts))
	defer reg2.Close()
	tr.timed("wal.replay", 0, -1, func() { _, err = reg2.Recover(ctx) })
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	want := seedTbl.NumRows() + appended
	if st, ok := reg2.StreamStatus(seedTbl.Name); !ok || st.Rows != want {
		r.fail("write probe recovered %d rows, want %d", st.Rows, want)
	}
	r.note("registry self time over ingest: append %.4f ms, refresh %.4f ms",
		tr.meanMS("registry.append")-tr.meanMS("ingest.append"), tr.meanMS("registry.refresh")-tr.meanMS("ingest.refresh"))
	r.add("registry.append_ms", tr.meanMS("registry.append"), "ms", len(tr.durations("registry.append")))
	r.add("registry.refresh_ms", tr.meanMS("registry.refresh"), "ms", len(tr.durations("registry.refresh")))
	r.add("ingest.append_ms", tr.meanMS("ingest.append"), "ms", len(tr.durations("ingest.append")))
	r.add("ingest.refresh_ms", tr.meanMS("ingest.refresh"), "ms", len(tr.durations("ingest.refresh")))
	r.add("wal.bytes_per_row", float64(walBytes)/float64(max(appended, 1)), "B", appended)
	r.add("wal.segments", float64(ps.WalSegments), "count", 0)
	r.add("wal.replay_s", tr.meanMS("wal.replay")/1000, "s", 1)
	r.add("table.snapshot_us", 1000*tr.meanMS("table.snapshot"), "us", len(tr.durations("table.snapshot")))
	return nil
}

// probeOnRows runs the write-path probe over a workload's own rows: the
// first quarter seeds a stream, the next rows arrive as 100 batches of
// 200 with a refresh every 25.
func probeOnRows(ctx context.Context, r *report, tr *tracer, cfg runConfig, tbl *table.Table) error {
	n0 := tbl.NumRows() / 4
	batch := 200
	if cfg.smoke {
		batch = 20
	}
	batches := rowsOf(tbl, n0, min(tbl.NumRows(), n0+100*batch), batch)
	return writeProbe(ctx, r, tr, cfg.workdir, prefix(tbl, n0), batches, probeStreamConfig(cfg.seed), 25)
}

// rowsOf renders rows [lo, hi) of a table as loosely typed append
// batches of size n, the shape POST /v1/tables/{name}/rows carries.
func rowsOf(tbl *table.Table, lo, hi, n int) [][][]any {
	var out [][][]any
	for b := lo; b < hi; b += n {
		var batch [][]any
		for r := b; r < min(b+n, hi); r++ {
			row := make([]any, len(tbl.Columns))
			for j, c := range tbl.Columns {
				switch c.Spec.Kind {
				case table.String:
					row[j] = c.StringAt(r)
				case table.Int:
					row[j] = c.Int[r]
				default:
					row[j] = c.Float[r]
				}
			}
			batch = append(batch, row)
		}
		out = append(out, batch)
	}
	return out
}

// prefix returns a copy of rows [0, n) of tbl under the same name.
func prefix(tbl *table.Table, n int) *table.Table {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t := tbl.Select(idx)
	t.Name = tbl.Name
	return t
}

// runtimeReport adds the runtime deltas of an untraced phase of ops.
func runtimeReport(r *report, before, after rtStats, ops int) {
	share := 0.0
	if d := after.totalCPU - before.totalCPU; d > 0 {
		share = (after.gcCPU - before.gcCPU) / d
	}
	r.add("runtime.gc_cpu_share", share, "ratio", ops)
	r.add("runtime.alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(max(ops, 1)), "KiB", ops)
}

// toSpecs converts wire workload specs to core specs.
func toSpecs(qs []apiv1.QuerySpec) []core.QuerySpec {
	out := make([]core.QuerySpec, len(qs))
	for i, q := range qs {
		out[i].GroupBy = q.GroupBy
		for _, a := range q.Aggs {
			out[i].Aggs = append(out[i].Aggs, core.AggColumn{Column: a.Column, Weight: a.Weight})
		}
	}
	return out
}

func specOf(groupBy ...string) []apiv1.QuerySpec {
	return []apiv1.QuerySpec{{GroupBy: groupBy, Aggs: []apiv1.Agg{{Column: "value"}}}}
}
