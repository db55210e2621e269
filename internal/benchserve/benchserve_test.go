package benchserve

import (
	"context"
	"flag"
	"testing"
)

// The scenario list is the bench contract: cvbench's BENCH_serve.json
// schema and CI's smoke step both key on these names.
func TestScenarioNamesStable(t *testing.T) {
	scs := Scenarios(context.Background())
	want := []string{"build", "query_sample", "query_exact", "append",
		"exec_interpreted", "exec_planned",
		"qos_baseline", "qos_coalesced", "qos_shed", "metrics_render"}
	if len(scs) != len(want) {
		t.Fatalf("got %d scenarios, want %d", len(scs), len(want))
	}
	for i, sc := range scs {
		if sc.Name != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, sc.Name, want[i])
		}
		if sc.Run == nil {
			t.Errorf("scenario %q has no Run func", sc.Name)
		}
	}
}

// Run at a single iteration per scenario: every Result must carry a
// plausible measurement. This is the same path cvbench drives.
func TestRunSingleIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping bench execution in -short mode")
	}
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	results, err := Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results, want 10", len(results))
	}
	for _, r := range results {
		if r.Iterations < 1 || r.NsPerOp <= 0 {
			t.Errorf("result %q implausible: %+v", r.Name, r)
		}
		if r.AllocsPerOp < 0 || r.BytesPerOp < 0 {
			t.Errorf("result %q negative allocations: %+v", r.Name, r)
		}
	}
}
