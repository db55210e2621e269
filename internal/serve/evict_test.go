package serve_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/table"
)

// evictTable builds a small named table with a deterministic region/
// amount shape (every region present enough for any budget).
func evictTable(t *testing.T, name string, rows int) *table.Table {
	t.Helper()
	tbl := table.New(name, table.Schema{
		{Name: "region", Kind: table.String},
		{Name: "amount", Kind: table.Float},
	})
	regions := []string{"NA", "EU", "APAC"}
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow(regions[i%len(regions)], float64(i%13)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func evictBuild(name string, budget int) serve.BuildRequest {
	return serve.BuildRequest{
		Table: name,
		Queries: []core.QuerySpec{{
			GroupBy: []string{"region"},
			Aggs:    []core.AggColumn{{Column: "amount"}},
		}},
		Budget: budget,
		Seed:   3,
	}
}

// entryTables reports which tables currently have a resident sample.
func entryTables(reg *serve.Registry) map[string]bool {
	out := make(map[string]bool)
	for _, e := range reg.Entries() {
		out[e.Table] = true
	}
	return out
}

// Eviction order: never-hit entries go first (oldest install first
// among them); entries Find has selected are protected until no
// never-hit entry is left.
func TestEvictionOrderHitsInformedLRU(t *testing.T) {
	// budget sized below four samples so the fourth install must evict;
	// one shard makes the walk order irrelevant to the assertion
	reg := serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(1))
	defer reg.Close()
	names := []string{"ta", "tb", "tc", "td"}
	for _, n := range names {
		if err := reg.RegisterTable(evictTable(t, n, 300)); err != nil {
			t.Fatal(err)
		}
	}
	// learn one sample's charged size with an unreachable budget in
	// place (max=1 evicts this probe immediately after install)
	probe, _, err := reg.Build(context.Background(), evictBuild("ta", 60))
	if err != nil {
		t.Fatal(err)
	}
	if probe.SizeBytes() <= 0 {
		t.Fatalf("entry size %d, want > 0", probe.SizeBytes())
	}
	if got := reg.Evictions(); got != 1 {
		t.Fatalf("probe build should have been evicted (budget 1 byte), got %d evictions", got)
	}
	if got := reg.ResidentSampleBytes(); got != 0 {
		t.Fatalf("resident bytes %d after probe eviction, want 0", got)
	}

	// real run: room for three samples, not four
	reg = serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(3*probe.SizeBytes()))
	defer reg.Close()
	for _, n := range names {
		if err := reg.RegisterTable(evictTable(t, n, 300)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range names[:3] { // install ta, tb, tc (in that order)
		if _, _, err := reg.Build(context.Background(), evictBuild(n, 60)); err != nil {
			t.Fatal(err)
		}
	}
	// touch ta and tc; tb stays never-hit
	for _, n := range []string{"ta", "tc"} {
		if _, ok := reg.Find(n, []string{"region"}); !ok {
			t.Fatalf("no sample found for %s", n)
		}
	}
	if _, _, err := reg.Build(context.Background(), evictBuild("td", 60)); err != nil { // forces one eviction
		t.Fatal(err)
	}
	have := entryTables(reg)
	if have["tb"] {
		t.Fatalf("tb (never hit, oldest) should have been evicted; resident: %v", have)
	}
	for _, n := range []string{"ta", "tc", "td"} {
		if !have[n] {
			t.Fatalf("%s should have survived; resident: %v", n, have)
		}
	}
	if got := reg.Evictions(); got != 1 {
		t.Fatalf("got %d evictions, want 1", got)
	}

	// once every survivor is proven hot, a new build still stays: the
	// entry just installed goes last, so the least-recently-used hot
	// entry (ta) gives way instead
	if _, ok := reg.Find("td", []string{"region"}); !ok {
		t.Fatal("no sample found for td")
	}
	if _, _, err := reg.Build(context.Background(), evictBuild("tb", 60)); err != nil {
		t.Fatal(err)
	}
	have = entryTables(reg)
	if !have["tb"] || have["ta"] {
		t.Fatalf("fresh tb should stay and least-recently-used ta go; resident: %v", have)
	}
	for _, n := range []string{"tc", "td"} {
		if !have[n] {
			t.Fatalf("hot entry %s must survive; resident: %v", n, have)
		}
	}

	// an evicted key is a cache miss, not an error: the same request
	// rebuilds (and Builds counts the real sampler runs)
	builds := reg.Builds()
	if _, cached, err := reg.Build(context.Background(), evictBuild("ta", 60)); err != nil || cached {
		t.Fatalf("evicted key should rebuild fresh (cached=%v err=%v)", cached, err)
	}
	if got := reg.Builds(); got != builds+1 {
		t.Fatalf("rebuild after eviction should run the sampler (builds %d -> %d)", builds, got)
	}
}

// Regression: with the byte budget full of samples that have answered
// queries, a new build used to be the only never-hit entry and was
// evicted by its own install — Build (and POST /v1/samples) reported
// success for a sample a sample-mode query then could not find.
func TestFreshSampleSurvivesInstall(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1))
	if err := reg.RegisterTable(evictTable(t, "t0", 300)); err != nil {
		t.Fatal(err)
	}
	probe, _, err := reg.Build(context.Background(), evictBuild("t0", 60))
	if err != nil {
		t.Fatal(err)
	}
	reg.Close()

	reg = serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(3*probe.SizeBytes()))
	defer reg.Close()
	for _, n := range []string{"ta", "tb", "tc", "td"} {
		if err := reg.RegisterTable(evictTable(t, n, 300)); err != nil {
			t.Fatal(err)
		}
	}
	sql := func(n string) string { return "SELECT region, AVG(amount) FROM " + n + " GROUP BY region" }
	opt := serve.QueryOptions{Mode: serve.ModeSample}
	for _, n := range []string{"ta", "tb", "tc"} { // fill the budget with hit samples
		if _, _, err := reg.Build(context.Background(), evictBuild(n, 60)); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Query(context.Background(), sql(n), opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := reg.Build(context.Background(), evictBuild("td", 60)); err != nil {
		t.Fatal(err)
	}
	ans, err := reg.Query(context.Background(), sql("td"), opt)
	if err != nil {
		t.Fatalf("sample-mode query right after the build: %v", err)
	}
	if ans.Entry == nil || ans.Entry.Table != "td" {
		t.Fatalf("want an answer from td's sample, got entry %+v", ans.Entry)
	}
	if got := reg.Evictions(); got != 1 {
		t.Fatalf("got %d evictions, want 1 (an older hit sample)", got)
	}
}

// A sample kept warm through the Build cache path alone (re-registered
// each time, queried out-of-band) must count as reused — otherwise the
// byte budget would evict the hottest build-path entry first and turn
// every re-register into a full rebuild.
func TestCachedBuildsCountAsReuse(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1))
	defer reg.Close()
	for _, n := range []string{"ta", "tb"} {
		if err := reg.RegisterTable(evictTable(t, n, 300)); err != nil {
			t.Fatal(err)
		}
	}
	warm, _, err := reg.Build(context.Background(), evictBuild("ta", 60))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // keep ta warm via Build alone
		if _, cached, err := reg.Build(context.Background(), evictBuild("ta", 60)); err != nil || !cached {
			t.Fatalf("re-register should hit the cache (cached=%v err=%v)", cached, err)
		}
	}
	if got := warm.Hits.Load(); got != 3 {
		t.Fatalf("cached builds recorded %d hits, want 3", got)
	}

	// now bound the registry and re-create the scenario: warm-via-Build
	// ta, never-touched tb, pressure from tc — tb must go first
	probeSize := warm.SizeBytes()
	reg = serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(2*probeSize))
	defer reg.Close()
	for _, n := range []string{"ta", "tb", "tc"} {
		if err := reg.RegisterTable(evictTable(t, n, 300)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []string{"ta", "tb"} {
		if _, _, err := reg.Build(context.Background(), evictBuild(n, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if _, cached, err := reg.Build(context.Background(), evictBuild("ta", 60)); err != nil || !cached {
		t.Fatalf("warming build should be cached (cached=%v err=%v)", cached, err)
	}
	if _, _, err := reg.Build(context.Background(), evictBuild("tc", 60)); err != nil { // forces one eviction
		t.Fatal(err)
	}
	have := entryTables(reg)
	if have["tb"] || !have["ta"] {
		t.Fatalf("never-reused tb should be evicted before Build-warmed ta; resident: %v", have)
	}
}

// The acceptance-criterion test: across a build-heavy workload the
// resident byte estimate never exceeds the configured budget, the
// per-entry sizes always sum to the reported total, and evictions are
// actually happening.
func TestByteBudgetHeldUnderBuildHeavyWorkload(t *testing.T) {
	const names = 6
	probeReg := serve.NewRegistry()
	defer probeReg.Close()
	if err := probeReg.RegisterTable(evictTable(t, "t0", 400)); err != nil {
		t.Fatal(err)
	}
	probe, _, err := probeReg.Build(context.Background(), evictBuild("t0", 80))
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * probe.SizeBytes() // room for ~4 of the largest samples

	reg := serve.NewRegistry(serve.WithMaxSampleBytes(budget))
	defer reg.Close()
	for i := 0; i < names; i++ {
		if err := reg.RegisterTable(evictTable(t, fmt.Sprintf("t%d", i), 400)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 8; round++ {
		for i := 0; i < names; i++ {
			req := evictBuild(fmt.Sprintf("t%d", i), 40+10*(round%5))
			req.Seed = int64(1 + round) // distinct keys: every build is fresh
			if _, _, err := reg.Build(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			if got := reg.ResidentSampleBytes(); got > budget {
				t.Fatalf("resident %d bytes exceeds budget %d after round %d", got, budget, round)
			}
			var sum int64
			for _, e := range reg.Entries() {
				sum += e.SizeBytes()
			}
			if got := reg.ResidentSampleBytes(); sum != got {
				t.Fatalf("entry sizes sum to %d but registry reports %d resident", sum, got)
			}
		}
	}
	if reg.Evictions() == 0 {
		t.Fatal("build-heavy workload over budget should have evicted something")
	}
	if reg.EvictedBytes() <= 0 {
		t.Fatal("evicted bytes should be positive")
	}
}

// Live streaming generations are pinned: static samples around them
// evict, the streaming entry survives any pressure — even a budget it
// alone exceeds.
func TestStreamingEntriesPinnedAgainstEviction(t *testing.T) {
	reg := serve.NewRegistry(serve.WithShards(1), serve.WithMaxSampleBytes(1))
	defer reg.Close()
	if err := reg.RegisterStreamingTable(salesTable(t), streamCfg(120)); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterTable(evictTable(t, "static", 300)); err != nil {
		t.Fatal(err)
	}
	// the streaming generation alone dwarfs the 1-byte budget, yet must
	// stay resident
	if _, _, err := reg.Build(context.Background(), evictBuild("static", 50)); err != nil {
		t.Fatal(err)
	}
	entries := reg.Entries()
	if len(entries) != 1 || entries[0].Generation == 0 {
		t.Fatalf("only the pinned streaming generation should survive, got %d entries", len(entries))
	}
	if e, ok := reg.Find("sales", []string{"region"}); !ok || e.Generation == 0 {
		t.Fatal("pinned streaming sample must stay findable")
	}
	if reg.Evictions() == 0 {
		t.Fatal("the static sample should have been evicted")
	}
	// refreshes keep the pin on the new generation
	if _, err := reg.Append("sales", streamRows(0, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Refresh("sales"); err != nil {
		t.Fatal(err)
	}
	if e, ok := reg.Find("sales", []string{"region"}); !ok || e.Generation < 2 {
		t.Fatal("refreshed streaming generation must stay resident and findable")
	}
}
