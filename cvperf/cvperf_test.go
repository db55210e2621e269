package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/table"
)

func TestPercentileAndQuartiles(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		p, want float64
	}{{0, 1}, {50, 5.5}, {90, 9.1}, {99, 9.91}, {100, 10}} {
		if got := percentile(ten, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	// expected values are Python's statistics.quantiles(xs, n=4)
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{3.5, 1.25, 9, 4, 7.75}, 2.375, 8.375},
		{ten, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := genOpenAQTable(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genOpenAQTable(3000, 7)
	c, _ := genOpenAQTable(3000, 8)
	if !bytes.Equal(csvOf(t, a), csvOf(t, b)) {
		t.Error("the same seed generated different data")
	}
	if bytes.Equal(csvOf(t, a), csvOf(t, c)) {
		t.Error("different seeds generated the same data")
	}
	if !reflect.DeepEqual(rowsOf(a, 100, 300, 50), rowsOf(b, 100, 300, 50)) {
		t.Error("the same seed produced different append batches")
	}

	var d1, d2, d3 []int
	for i := 0; i < 200; i++ {
		d1 = append(d1, dashboardOp(7, i))
		d2 = append(d2, dashboardOp(7, i))
		d3 = append(d3, dashboardOp(8, i))
	}
	if !reflect.DeepEqual(d1, d2) || reflect.DeepEqual(d1, d3) {
		t.Error("dashboard op sequence is not a function of the seed")
	}

	f := newFrame(a)
	g1 := newAdhocGen(7, f.labels["country"], f.labels["parameter"])
	g2 := newAdhocGen(7, f.labels["country"], f.labels["parameter"])
	g3 := newAdhocGen(8, f.labels["country"], f.labels["parameter"])
	seen := map[string]bool{}
	same, builds := true, 0
	// draw g1 backwards so on-demand generation order cannot matter
	for i := 299; i >= 0; i-- {
		g1.op(i)
	}
	for i := 0; i < 300; i++ {
		o1, o2 := g1.op(i), g2.op(i)
		if !reflect.DeepEqual(o1, o2) {
			t.Fatalf("adhoc op %d differs for the same seed: %+v vs %+v", i, o1, o2)
		}
		same = same && reflect.DeepEqual(o1, g3.op(i))
		if o1.build {
			builds++
			continue
		}
		if seen[o1.sql] {
			t.Errorf("adhoc text repeats: %s", o1.sql)
		}
		seen[o1.sql] = true
	}
	if same {
		t.Error("adhoc op sequence ignores the seed")
	}
	if builds != 300/buildEvery {
		t.Errorf("%d builds in 300 ops, want %d", builds, 300/buildEvery)
	}
}

func csvOf(t *testing.T, tbl *table.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestGroupByTruth(t *testing.T) {
	tbl := table.New("T", table.Schema{
		{Name: "country", Kind: table.String},
		{Name: "hour", Kind: table.Int},
		{Name: "value", Kind: table.Float},
	})
	for _, r := range []struct {
		c string
		h int64
		v float64
	}{{"US", 1, 1}, {"US", 2, 3}, {"FR", 1, 10}, {"FR", 5, 0.5}, {"VN", 9, 2}} {
		if err := tbl.AppendRow(r.c, r.h, r.v); err != nil {
			t.Fatal(err)
		}
	}
	f := newFrame(tbl)
	q := query{GroupBy: []string{"country"},
		Aggs:  []agg{{Fn: "AVG", Col: "value"}, {Fn: "COUNT"}, {Fn: "COUNT_IF", Col: "value", Lit: "0.9"}, {Fn: "SUM", Col: "value"}},
		Where: []pred{{Col: "hour", Op: "between", Lo: "1", Hi: "5"}}}
	if got, want := q.SQL("T"), "SELECT country, AVG(value), COUNT(*), COUNT_IF(value > 0.9), SUM(value) FROM T WHERE hour BETWEEN 1 AND 5 GROUP BY country"; got != want {
		t.Errorf("SQL = %q, want %q", got, want)
	}
	got, err := f.groupBy(q, tbl.NumRows())
	if err != nil {
		t.Fatal(err)
	}
	want := answer{
		groupKey([]string{"country"}, []string{"US"}): {2, 2, 2, 4},
		groupKey([]string{"country"}, []string{"FR"}): {5.25, 2, 1, 10.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("groupBy = %v, want %v", got, want)
	}
	// a prefix of the rows, a string equality and a cube
	cube := query{GroupBy: []string{"country", "hour"}, Cube: true, Aggs: []agg{{Fn: "SUM", Col: "value"}},
		Where: []pred{{Col: "country", Op: "=", Lit: "US", Str: true}}}
	got, err = f.groupBy(cube, 2)
	if err != nil {
		t.Fatal(err)
	}
	want = answer{
		groupKey([]string{"country", "hour"}, []string{"US", "1"}): {1},
		groupKey([]string{"country", "hour"}, []string{"US", "2"}): {3},
		groupKey([]string{"country"}, []string{"US"}):              {4},
		groupKey([]string{"hour"}, []string{"1"}):                  {1},
		groupKey([]string{"hour"}, []string{"2"}):                  {3},
		groupKey(nil, nil): {4},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cube groupBy = %v, want %v", got, want)
	}
}

// TestAliasedTextsKeyApart checks what the traced replay relies on:
// the aliased texts it sends to ServeHTTP and Registry.Query are the
// same query under plan-cache keys (the normalized SQL) of their own.
func TestAliasedTextsKeyApart(t *testing.T) {
	for _, q := range append(dashboardQueries, ingestQueries...) {
		keys := map[string]bool{}
		var plain string
		for _, alias := range []string{"", "depth_http", "depth_registry"} {
			pq, err := sqlparse.Parse(q.aliasedSQL(tableName, alias))
			if err != nil {
				t.Fatalf("%s: %v", q.aliasedSQL(tableName, alias), err)
			}
			keys[pq.String()] = true
			pq.Select[len(q.GroupBy)].Alias = ""
			if alias == "" {
				plain = pq.String()
			} else if pq.String() != plain {
				t.Errorf("%s without its alias is %q, want %q", q.aliasedSQL(tableName, alias), pq.String(), plain)
			}
		}
		if len(keys) != 3 {
			t.Errorf("%s: the three texts share plan-cache keys", q.SQL(tableName))
		}
	}
}

// TestSmoke runs every workload end to end on tiny inputs, untraced and
// traced: each must pass its correctness checks and print every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots three servers twice")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"dashboard", "adhoc", "ingest"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "5", "--seconds", "1", "--trace", trace, "--smoke"}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				want := e2eMetrics
				if trace == "1" {
					want = layerMetrics
				}
				var names []string
				for n := range res.Metrics {
					names = append(names, n)
				}
				sort.Strings(names)
				sorted := append([]string(nil), want...)
				sort.Strings(sorted)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || !reflect.DeepEqual(names, sorted) {
					t.Errorf("result %+v, want correct with metrics %v", res, sorted)
				}
			})
		}
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, e2eMetrics) {
		t.Errorf("end_to_end %v, the benchmark prints %v", got, e2eMetrics)
	}
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, layerMetrics) {
		t.Errorf("per_layer %v, the benchmark prints %v", got, layerMetrics)
	}
	for _, w := range names(spec.Workloads) {
		if workloads[w] == nil {
			t.Errorf("workload %q is not implemented", w)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
}
