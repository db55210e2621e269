package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	apiv1 "repro/internal/api/v1"
	"repro/internal/serve"
)

// startServer spins up an httptest server over a fresh sales registry.
func startServer(t *testing.T) (*httptest.Server, *serve.Registry) {
	t.Helper()
	reg := newSalesRegistry(t)
	ts := httptest.NewServer(serve.NewServer(reg))
	t.Cleanup(ts.Close)
	return ts, reg
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, url string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v", data, err)
		}
	}
	return resp.StatusCode
}

func get(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

const buildBody = `{
	"table": "sales",
	"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}],
	"budget": 300,
	"seed": 7
}`

// queryResponse mirrors the wire format of POST /v1/query.
type queryResponse struct {
	Table      string   `json:"table"`
	Exact      bool     `json:"exact"`
	SampleKey  string   `json:"sample_key"`
	SampleRows int      `json:"sample_rows"`
	AggLabels  []string `json:"agg_labels"`
	Groups     []struct {
		Set    int        `json:"set"`
		Key    []string   `json:"key"`
		Aggs   []*float64 `json:"aggs"`
		SE     []*float64 `json:"se"`
		RelErr []*float64 `json:"rel_err"`
	} `json:"groups"`
}

func TestServerEndToEnd(t *testing.T) {
	ts, _ := startServer(t)

	var health struct {
		Status  string `json:"status"`
		Version string `json:"version"`
		Go      string `json:"go"`
		Tables  int    `json:"tables"`
		Samples int    `json:"samples"`
	}
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health.Status != "ok" || health.Tables != 1 || health.Samples != 0 {
		t.Fatalf("healthz: %+v", health)
	}
	// build identity: the ldflags version stamp ("dev" unstamped) and
	// the Go runtime, so fleet operators can tell daemons apart
	if health.Version != "dev" || !strings.HasPrefix(health.Go, "go") {
		t.Fatalf("healthz build identity: %+v", health)
	}

	var tables struct {
		Tables []struct {
			Name string `json:"name"`
			Rows int    `json:"rows"`
		} `json:"tables"`
	}
	if code := get(t, ts.URL+"/v1/tables", &tables); code != http.StatusOK {
		t.Fatalf("tables: %d", code)
	}
	if len(tables.Tables) != 1 || tables.Tables[0].Name != "sales" || tables.Tables[0].Rows != 3740 {
		t.Fatalf("tables: %+v", tables)
	}

	// register a sample: first build is 201, the repeat is a cached 200
	var built struct {
		Key    string `json:"key"`
		Rows   int    `json:"rows"`
		Cached bool   `json:"cached"`
	}
	if code := post(t, ts.URL+"/v1/samples", buildBody, &built); code != http.StatusCreated {
		t.Fatalf("build: %d", code)
	}
	if built.Key == "" || built.Rows == 0 || built.Cached {
		t.Fatalf("build: %+v", built)
	}
	if code := post(t, ts.URL+"/v1/samples", buildBody, &built); code != http.StatusOK || !built.Cached {
		t.Fatalf("rebuild should be cached: %+v", built)
	}

	var list struct {
		Samples []struct {
			Key     string   `json:"key"`
			GroupBy []string `json:"group_by"`
		} `json:"samples"`
	}
	if code := get(t, ts.URL+"/v1/samples", &list); code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if len(list.Samples) != 1 || list.Samples[0].Key != built.Key {
		t.Fatalf("list: %+v", list)
	}

	// the acceptance query: per-group estimates with standard errors
	var qr queryResponse
	code := post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region"}`, &qr)
	if code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if qr.Exact || qr.SampleKey != built.Key || qr.SampleRows != built.Rows {
		t.Fatalf("query should answer from the built sample: %+v", qr)
	}
	if len(qr.Groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(qr.Groups))
	}
	for _, g := range qr.Groups {
		if len(g.Aggs) != 1 || g.Aggs[0] == nil {
			t.Fatalf("group %v missing estimate", g.Key)
		}
		if len(g.SE) != 1 || g.SE[0] == nil || *g.SE[0] <= 0 {
			t.Fatalf("group %v missing standard error", g.Key)
		}
	}

	// compare mode reports true relative errors
	qr = queryResponse{}
	code = post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region", "compare": true}`, &qr)
	if code != http.StatusOK {
		t.Fatalf("compare query: %d", code)
	}
	for _, g := range qr.Groups {
		if len(g.RelErr) != 1 || g.RelErr[0] == nil || *g.RelErr[0] > 0.25 {
			t.Fatalf("group %v rel_err missing or implausible: %+v", g.Key, g.RelErr)
		}
	}

	// exact mode bypasses the sample
	qr = queryResponse{}
	code = post(t, ts.URL+"/v1/query",
		`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region", "mode": "exact"}`, &qr)
	if code != http.StatusOK || !qr.Exact || qr.SampleKey != "" {
		t.Fatalf("exact query: code=%d %+v", code, qr)
	}
}

func TestServerErrors(t *testing.T) {
	ts, _ := startServer(t)
	// every non-2xx body is the apiv1.Error envelope: the status is
	// derived from the machine-readable code, so both are asserted
	cases := []struct {
		name, path, body string
		wantCode         int
		wantAPICode      string
	}{
		{"bad json", "/v1/samples", `{`, http.StatusBadRequest, apiv1.CodeInvalidBody},
		{"unknown field", "/v1/samples", `{"buget": 3}`, http.StatusBadRequest, apiv1.CodeInvalidBody},
		{"missing table", "/v1/samples", `{"queries": [], "budget": 10}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"unknown table", "/v1/samples", `{"table": "nope", "queries": [{"group_by": ["x"], "aggs": [{"column": "y"}]}], "budget": 10}`, http.StatusNotFound, apiv1.CodeTableNotFound},
		{"no budget", "/v1/samples", `{"table": "sales", "queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeBudgetConflict},
		{"both budgets", "/v1/samples", `{"table": "sales", "budget": 10, "rate": 0.1, "queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeBudgetConflict},
		{"negative budget", "/v1/samples", `{"table": "sales", "budget": -5, "rate": 0.1, "queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"bad rate", "/v1/samples", `{"table": "sales", "rate": 1.5, "queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"bad norm", "/v1/samples", `{"table": "sales", "budget": 10, "norm": "l7", "queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"lp without p", "/v1/samples", `{"table": "sales", "budget": 10, "norm": "lp", "queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"invalid spec", "/v1/samples", `{"table": "sales", "budget": 10, "queries": [{"group_by": [], "aggs": [{"column": "amount"}]}]}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"bad agg column", "/v1/samples", `{"table": "sales", "budget": 10, "queries": [{"group_by": ["region"], "aggs": [{"column": "nope"}]}]}`, http.StatusUnprocessableEntity, apiv1.CodeBuildFailed},
		{"query bad json", "/v1/query", `{`, http.StatusBadRequest, apiv1.CodeInvalidBody},
		{"query no sql", "/v1/query", `{}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"query bad mode", "/v1/query", `{"sql": "SELECT COUNT(*) FROM sales", "mode": "psychic"}`, http.StatusBadRequest, apiv1.CodeInvalidRequest},
		{"query max_budget alone", "/v1/query", `{"sql": "SELECT COUNT(*) FROM sales", "max_budget": 50}`, http.StatusBadRequest, apiv1.CodeBudgetConflict},
		{"query bad sql", "/v1/query", `{"sql": "not sql"}`, http.StatusUnprocessableEntity, apiv1.CodeQueryFailed},
		{"query unknown table", "/v1/query", `{"sql": "SELECT region, AVG(amount) FROM nope GROUP BY region"}`, http.StatusNotFound, apiv1.CodeTableNotFound},
		{"query no covering sample", "/v1/query", `{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region", "mode": "sample"}`, http.StatusUnprocessableEntity, apiv1.CodeQueryFailed},
		{"stream unknown table", "/v1/tables/nope/stream", `{"queries": [{"group_by": ["region"], "aggs": [{"column": "amount"}]}], "rate": 0.1}`, http.StatusNotFound, apiv1.CodeTableNotFound},
		{"rows not streaming", "/v1/tables/sales/rows", `{"rows": [["NA", "widget", 1.5]]}`, http.StatusConflict, apiv1.CodeNotStreaming},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if code := post(t, ts.URL+c.path, c.body, &e); code != c.wantCode {
			t.Errorf("%s: got %d, want %d", c.name, code, c.wantCode)
		} else if e.Error == "" {
			t.Errorf("%s: error body missing", c.name)
		} else if e.Code != c.wantAPICode {
			t.Errorf("%s: code %q, want %q", c.name, e.Code, c.wantAPICode)
		} else if apiv1.StatusOf(e.Code) != code {
			t.Errorf("%s: status %d disagrees with code %q", c.name, code, e.Code)
		}
	}
	// wrong method → 405 from the method-scoped mux patterns
	resp, err := http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: got %d, want 405", resp.StatusCode)
	}
}

// The POST Content-Type gate: a body affirmatively declared as
// something other than JSON is a 415 before any handler runs; a
// missing Content-Type is accepted (bare scripted clients) and decoded
// as JSON.
func TestServerContentTypeGate(t *testing.T) {
	ts, _ := startServer(t)
	for _, ct := range []string{"text/plain", "application/x-www-form-urlencoded", "application/xml; charset=utf-8"} {
		resp, err := http.Post(ts.URL+"/v1/query", ct, strings.NewReader(`{"sql": "SELECT COUNT(*) FROM sales"}`))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType || e.Code != apiv1.CodeUnsupportedMedia {
			t.Fatalf("%s: got %d code %q, want 415 %q", ct, resp.StatusCode, e.Code, apiv1.CodeUnsupportedMedia)
		}
	}
	// gate rejections are visible in /healthz under the synthetic
	// latency label (they never reach a routed handler)
	var health struct {
		Latency map[string]struct {
			Count int64 `json:"count"`
		} `json:"latency"`
	}
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if g, ok := health.Latency["POST (unsupported_media_type)"]; !ok || g.Count != 3 {
		t.Fatalf("415s missing from latency digests: %+v", health.Latency)
	}
	// no Content-Type at all: accepted and treated as JSON
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(`{"sql": "SELECT COUNT(*) FROM sales"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bare POST: got %d, want 200", resp.StatusCode)
	}
	// GETs are exempt: the gate is for request bodies
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %d", resp.StatusCode)
	}
}

// Per-route latency digests: after traffic on distinct routes,
// /healthz reports one plausible p50/p95/p99 series per route pattern,
// read from the same histograms GET /metrics exposes — the Content-Type
// gate's synthetic label included.
func TestServerLatencyDigests(t *testing.T) {
	ts, reg := startServer(t)
	if code := post(t, ts.URL+"/v1/samples", buildBody, nil); code != http.StatusCreated {
		t.Fatalf("build: %d", code)
	}
	for i := 0; i < 5; i++ {
		if code := post(t, ts.URL+"/v1/query",
			`{"sql": "SELECT region, AVG(amount) FROM sales GROUP BY region"}`, nil); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}
	var health struct {
		Latency map[string]struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50_ms"`
			P95   float64 `json:"p95_ms"`
			P99   float64 `json:"p99_ms"`
		} `json:"latency"`
	}
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	q, ok := health.Latency[apiv1.RouteQuery]
	if !ok {
		t.Fatalf("no latency series for %s: %+v", apiv1.RouteQuery, health.Latency)
	}
	if q.Count != 5 || q.P50 <= 0 || q.P95 < q.P50 || q.P99 < q.P95 {
		t.Fatalf("query latency implausible: %+v", q)
	}
	if b, ok := health.Latency[apiv1.RouteBuildSample]; !ok || b.Count != 1 {
		t.Fatalf("build latency: %+v", health.Latency)
	}
	// failed requests are timed too (the digest is per served request,
	// not per success), and the latency keys are route *patterns*, so
	// per-table URLs do not fan out into per-table series
	post(t, ts.URL+"/v1/tables/nope/rows", `{"rows": [["x"]]}`, nil)
	post(t, ts.URL+"/v1/tables/also-nope/rows", `{"rows": [["x"]]}`, nil)
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if r, ok := health.Latency[apiv1.RouteAppendRows]; !ok || r.Count != 2 {
		t.Fatalf("append latency should aggregate by pattern: %+v", health.Latency)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "text/plain", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if code := get(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if g, ok := health.Latency["POST (unsupported_media_type)"]; !ok || g.Count != 1 {
		t.Fatalf("the Content-Type gate label is missing from /healthz: %+v", health.Latency)
	}
	// one source of truth: every /healthz series is a /metrics
	// histogram with the same count, and its quantiles are ordered
	hist := reg.Obs().HistogramVec(serve.MetricHTTPDuration, "", "route")
	for route, d := range health.Latency {
		if d.P50 > d.P95 || d.P95 > d.P99 {
			t.Errorf("%s: quantiles out of order: %+v", route, d)
		}
		if route == "GET /healthz" {
			continue // the scrape below is itself a /healthz request
		}
		if n := hist.With(route).Count(); n != d.Count {
			t.Errorf("%s: /healthz count %d, /metrics histogram count %d", route, d.Count, n)
		}
	}
}

// Parallel clients over a real HTTP stack: all answers must be
// identical (same shared sample, deterministic executor). Run with
// -race, this is the serving guarantee end-to-end minus the binary.
func TestServerConcurrentClients(t *testing.T) {
	ts, _ := startServer(t)
	if code := post(t, ts.URL+"/v1/samples", buildBody, nil); code != http.StatusCreated {
		t.Fatalf("build: %d", code)
	}
	var want bytes.Buffer
	{
		resp, err := http.Post(ts.URL+"/v1/query", "application/json",
			strings.NewReader(`{"sql": "SELECT region, AVG(amount), COUNT(*) FROM sales GROUP BY region"}`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(&want, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	const clients = 12
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				resp, err := http.Post(ts.URL+"/v1/query", "application/json",
					strings.NewReader(`{"sql": "SELECT region, AVG(amount), COUNT(*) FROM sales GROUP BY region"}`))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(want.Bytes(), body) {
					t.Errorf("client %d: response diverged:\nwant %s\ngot  %s", c, want.Bytes(), body)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// concurrent sample registrations of one key over HTTP dedupe too
	var regWG sync.WaitGroup
	codes := make([]int, 8)
	body := fmt.Sprintf(`{
		"table": "sales",
		"queries": [{"group_by": ["region", "product"], "aggs": [{"column": "amount"}]}],
		"budget": 250
	}`)
	regWG.Add(len(codes))
	for i := range codes {
		go func(i int) {
			defer regWG.Done()
			codes[i] = post(t, ts.URL+"/v1/samples", body, nil)
		}(i)
	}
	regWG.Wait()
	fresh := 0
	for _, code := range codes {
		if code == http.StatusCreated {
			fresh++
		} else if code != http.StatusOK {
			t.Fatalf("concurrent registration: unexpected status %d", code)
		}
	}
	if fresh != 1 {
		t.Fatalf("%d registrations reported a fresh build, want exactly 1", fresh)
	}
}
