package serve_test

// The registry's one query path: every execution compiles a plan
// against the table or snapshot it runs on, concurrent queries agree
// bit-for-bit with the interpreter oracle, shapes the planner once
// refused (mixed-kind IF) are planned, plans bind rebuilt samples and
// refreshed stream snapshots, and the explain:true wire surface.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	apiv1 "repro/internal/api/v1"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/sqlparse"
)

const planSQL = "SELECT region, AVG(amount), COUNT(*) FROM sales WHERE amount > 50 GROUP BY region"

// TestQueryConcurrentMatchesInterpreter runs eight distinct queries
// from many goroutines, checking every answer against the
// interpreter's, and counts one compile per execution. Run under -race
// in CI.
func TestQueryConcurrentMatchesInterpreter(t *testing.T) {
	tbl := salesTable(t)
	reg := serve.NewRegistry(serve.WithShards(1))
	if err := reg.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	queries := make([]string, 8)
	wants := make([]*exec.Result, 8)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"SELECT region, SUM(amount), COUNT(*) FROM sales WHERE amount > %d GROUP BY region", i*10)
		q, err := sqlparse.Parse(queries[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.Run(tbl, q)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = want
	}

	const workers = 8
	const iters = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (w + i) % len(queries)
				ans, err := reg.Query(context.Background(), queries[qi], serve.QueryOptions{Mode: serve.ModeExact})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				want := wants[qi]
				if len(ans.Result.Rows) != len(want.Rows) {
					t.Errorf("worker %d: %d rows, want %d", w, len(ans.Result.Rows), len(want.Rows))
					return
				}
				for r := range want.Rows {
					for a := range want.Rows[r].Aggs {
						if math.Float64bits(ans.Result.Rows[r].Aggs[a]) != math.Float64bits(want.Rows[r].Aggs[a]) {
							t.Errorf("worker %d: row %d agg %d = %v, want %v",
								w, r, a, ans.Result.Rows[r].Aggs[a], want.Rows[r].Aggs[a])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := reg.PlanCompiles(); got != workers*iters {
		t.Fatalf("PlanCompiles() = %d, want %d (one per execution)", got, workers*iters)
	}
}

// TestQueryPlansMixedKindIF: an IF whose branches differ in kind (the
// shape the planner once refused) runs as a compiled plan and matches
// the interpreter bit-for-bit, exact and compared against a sample.
func TestQueryPlansMixedKindIF(t *testing.T) {
	tbl := salesTable(t)
	reg := serve.NewRegistry(serve.WithShards(1))
	if err := reg.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	sql := "SELECT region, COUNT_IF(IF(amount > 50, amount, region) > 0), SUM(IF(amount > 80, region, amount)) FROM sales GROUP BY region"
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := reg.Query(context.Background(), sql, serve.QueryOptions{Mode: serve.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Plan == nil {
		t.Fatal("mixed-kind IF must run as a compiled plan")
	}
	sameAggs(t, ans.Result, want)

	if _, _, err := reg.Build(context.Background(), serve.BuildRequest{
		Table: "sales", Budget: 40, Seed: 3,
		Queries: []core.QuerySpec{{GroupBy: []string{"region"}, Aggs: []core.AggColumn{{Column: "amount"}}}},
	}); err != nil {
		t.Fatal(err)
	}
	cmp, err := reg.Query(context.Background(), sql, serve.QueryOptions{Mode: serve.ModeSample, Compare: true})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Entry == nil || cmp.Plan == nil {
		t.Fatalf("want a planned sample answer, got entry=%v plan=%v", cmp.Entry, cmp.Plan)
	}
	sameAggs(t, cmp.ExactResult, want)
	weighted, err := exec.RunWeighted(tbl, q, cmp.Entry.Sample.Rows, cmp.Entry.Sample.Weights)
	if err != nil {
		t.Fatal(err)
	}
	sameAggs(t, cmp.Result, weighted)
}

// sameAggs requires bit-identical groups and aggregates.
func sameAggs(t *testing.T, got, want *exec.Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for r := range want.Rows {
		if fmt.Sprint(got.Rows[r].Key) != fmt.Sprint(want.Rows[r].Key) {
			t.Fatalf("row %d key %v, want %v", r, got.Rows[r].Key, want.Rows[r].Key)
		}
		for a := range want.Rows[r].Aggs {
			if math.Float64bits(got.Rows[r].Aggs[a]) != math.Float64bits(want.Rows[r].Aggs[a]) {
				t.Fatalf("row %d agg %d = %v, want %v", r, a, got.Rows[r].Aggs[a], want.Rows[r].Aggs[a])
			}
		}
	}
}

// TestPlanCacheSurvivesSampleEviction is the evict→rebuild regression
// test: a sample budget too small for any sample means every build is
// evicted right after it answers, so the second identical query
// rebuilds the sample. Its plan must bind to the *rebuilt* entry, not
// anything from the evicted one — verified by bit-comparing against
// the interpreter oracle over the rebuilt sample.
func TestPlanCacheSurvivesSampleEviction(t *testing.T) {
	tbl := salesTable(t)
	reg := serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(100))
	if err := reg.RegisterTable(tbl); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	// TargetCV makes the query build its own sample (Find misses every
	// time here, since the budget evicts each build immediately)
	sql := "SELECT region, AVG(amount) FROM sales GROUP BY region"
	opt := serve.QueryOptions{Mode: serve.ModeSample, TargetCV: 0.2}
	first, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.Plan == nil || first.Entry == nil {
		t.Fatalf("want a planned sample answer, got plan=%v entry=%v", first.Plan, first.Entry)
	}
	if reg.Evictions() == 0 {
		t.Fatal("a 100-byte budget should evict every sample immediately")
	}
	builds := reg.Builds()

	second, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Builds() != builds+1 {
		t.Fatalf("second query should rebuild the evicted sample (builds %d -> %d)", builds, reg.Builds())
	}
	if second.Entry == first.Entry {
		t.Fatal("second query answered from the evicted entry, want the rebuilt one")
	}
	// the oracle: the interpreter over each answer's own sample (the
	// rebuild is deterministic, so both match the same result)
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, ans := range []*serve.QueryAnswer{first, second} {
		oracle, err := exec.RunWeighted(tbl, q, ans.Entry.Sample.Rows, ans.Entry.Sample.Weights)
		if err != nil {
			t.Fatal(err)
		}
		sameAggs(t, ans.Result, oracle)
	}
}

// TestPlanCacheRebindsAcrossStreamSnapshots runs a query whose WHERE
// names a string value absent from the current snapshot, then
// refreshes the stream with rows carrying that value. The next query
// must bind its dictionary predicate to the new snapshot — a binding
// frozen at an earlier snapshot would keep filtering everything out.
func TestPlanCacheRebindsAcrossStreamSnapshots(t *testing.T) {
	reg := newStreamingRegistry(t, streamCfg(300))
	sql := "SELECT region, COUNT(*) FROM sales WHERE region = 'LATAM' GROUP BY region"
	opt := serve.QueryOptions{Mode: serve.ModeExact}
	before, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if before.Plan == nil {
		t.Fatal("string-equality WHERE should be plannable")
	}
	if len(before.Result.Rows) != 0 {
		t.Fatalf("LATAM groups before append = %d, want 0", len(before.Result.Rows))
	}

	rows := make([][]any, 7)
	for i := range rows {
		rows[i] = []any{"LATAM", "widget", 150.0 + float64(i)}
	}
	if _, err := reg.Append("sales", rows); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Refresh("sales"); err != nil {
		t.Fatal(err)
	}

	after, err := reg.Query(context.Background(), sql, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.PlanCompiles(); got != 2 {
		t.Fatalf("PlanCompiles() = %d, want 2 (each query compiles against its snapshot)", got)
	}
	if len(after.Result.Rows) != 1 || after.Result.Rows[0].Aggs[0] != 7 {
		t.Fatalf("LATAM groups after refresh = %+v, want one group counting 7 (stale dictionary binding?)",
			after.Result.Rows)
	}
}

// TestQueryExplainHTTP covers the wire surface: explain:true returns
// the operator tree and the executor tag; without it, no plan is
// attached but the executor is still reported.
func TestQueryExplainHTTP(t *testing.T) {
	ts, _ := startServer(t)

	var resp apiv1.QueryResponse
	body := fmt.Sprintf(`{"sql": %q, "mode": "exact", "explain": true}`, planSQL)
	if code := post(t, ts.URL+apiv1.Path(apiv1.RouteQuery), body, &resp); code != 200 {
		t.Fatalf("query returned %d", code)
	}
	if resp.Executor != apiv1.ExecutorColumnar {
		t.Fatalf("executor = %q, want %q", resp.Executor, apiv1.ExecutorColumnar)
	}
	if resp.Plan == nil || resp.Plan.Op != "output" {
		t.Fatalf("explain:true should attach an output-rooted plan, got %+v", resp.Plan)
	}
	node, ops := resp.Plan, []string{}
	for node != nil {
		ops = append(ops, node.Op)
		if len(node.Children) == 0 {
			break
		}
		node = node.Children[0]
	}
	if ops[len(ops)-1] != "scan" {
		t.Fatalf("plan chain %v should bottom out at scan", ops)
	}
	if src := node.Detail["source"]; src != "table" {
		t.Fatalf("exact-mode scan source = %v, want table", src)
	}

	var plain apiv1.QueryResponse
	body = fmt.Sprintf(`{"sql": %q, "mode": "exact"}`, planSQL)
	if code := post(t, ts.URL+apiv1.Path(apiv1.RouteQuery), body, &plain); code != 200 {
		t.Fatalf("query returned %d", code)
	}
	if plain.Plan != nil {
		t.Fatal("without explain:true no plan should be attached")
	}
	if plain.Executor != apiv1.ExecutorColumnar {
		t.Fatalf("executor = %q, want %q", plain.Executor, apiv1.ExecutorColumnar)
	}

	// explain is always available, also for an IF with mixed-kind
	// branches
	var mixed apiv1.QueryResponse
	body = `{"sql": "SELECT SUM(IF(amount > 80, region, amount)) FROM sales", "mode": "exact", "explain": true}`
	if code := post(t, ts.URL+apiv1.Path(apiv1.RouteQuery), body, &mixed); code != 200 {
		t.Fatalf("mixed-kind IF query returned %d", code)
	}
	if mixed.Plan == nil || mixed.Executor != apiv1.ExecutorColumnar {
		t.Fatalf("mixed-kind IF: plan %+v, executor %q", mixed.Plan, mixed.Executor)
	}
}
