// Command cvbench regenerates the paper's tables and figures on the
// synthetic datasets. Run a single experiment by id or all of them:
//
//	cvbench -exp fig1
//	cvbench -exp all -openaq-rows 1000000 -reps 5
//
// Experiment ids: fig1 sec61 table4 fig2 fig3 fig4 table5 fig5 table6
// fig6 ablp ablcap (see DESIGN.md for the per-experiment index).
//
// It also carries the serving-path microbenchmark suite
// (internal/benchserve): -bench serve measures each scenario with the
// testing package and writes BENCH_serve.json; -check-bench validates a
// previously written report (the CI smoke runs both at -benchtime 1x):
//
//	cvbench -bench serve -benchtime 10s -bench-out BENCH_serve.json
//	cvbench -check-bench BENCH_serve.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/benchserve"
	"repro/internal/experiments"
	"repro/internal/serve"
)

// benchSchema identifies the BENCH_serve.json format; bump it when the
// shape changes so downstream tooling fails loudly instead of
// misreading.
const benchSchema = "repro/bench-serve/v1"

// benchReport is the BENCH_serve.json document.
type benchReport struct {
	Schema    string        `json:"schema"`
	Version   string        `json:"version"`
	Go        string        `json:"go"`
	Timestamp string        `json:"timestamp"`
	Scenarios []benchResult `json:"scenarios"`
}

// benchResult is one scenario's measurement on the wire.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id or 'all' or 'list'")
		aqRows     = flag.Int("openaq-rows", 400000, "synthetic OpenAQ row count")
		bkRows     = flag.Int("bikes-rows", 150000, "synthetic Bikes row count")
		scale      = flag.Int("scale", 5, "duplication factor for the Table 6 large dataset")
		seed       = flag.Int64("seed", 1, "base RNG seed")
		reps       = flag.Int("reps", 3, "repetitions per cell (paper uses 5)")
		bench      = flag.String("bench", "", "run a benchmark suite instead of experiments ('serve')")
		benchTime  = flag.String("benchtime", "1s", "per-scenario benchmark time, testing -benchtime syntax (e.g. 2s, 100x)")
		benchOut   = flag.String("bench-out", "BENCH_serve.json", "benchmark report output path")
		checkBench = flag.String("check-bench", "", "validate a benchmark report written by -bench serve, then exit")
	)
	// testing.Init registers the testing flags so -benchtime can be
	// forwarded to testing.Benchmark below; it must run before Parse
	testing.Init()
	flag.Parse()

	if *checkBench != "" {
		fatalIf(checkBenchReport(*checkBench))
		fmt.Printf("cvbench: %s ok\n", *checkBench)
		return
	}
	if *bench != "" {
		if *bench != "serve" {
			fmt.Fprintf(os.Stderr, "cvbench: unknown -bench suite %q (want serve)\n", *bench)
			os.Exit(2)
		}
		fatalIf(runBenchServe(*benchTime, *benchOut))
		return
	}

	if *exp == "list" {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		OpenAQRows: *aqRows,
		BikesRows:  *bkRows,
		Scale:      *scale,
		Seed:       *seed,
		Reps:       *reps,
		Out:        os.Stdout,
	}

	run := func(e experiments.Experiment) {
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "cvbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.Registry() {
			run(e)
		}
		return
	}
	e, ok := experiments.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "cvbench: unknown experiment %q (use -exp list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}

// runBenchServe measures the serving scenarios and writes the report.
// The harness core (internal/benchserve) never reads the clock; the
// timestamp and build identity are stamped here.
func runBenchServe(benchtime, out string) error {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return fmt.Errorf("bad -benchtime %q: %w", benchtime, err)
	}
	results, err := benchserve.Run(context.Background())
	if err != nil {
		return err
	}
	report := benchReport{
		Schema:    benchSchema,
		Version:   serve.Version,
		Go:        runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	for _, r := range results {
		report.Scenarios = append(report.Scenarios, benchResult{
			Name:        r.Name,
			Iterations:  r.Iterations,
			NsPerOp:     r.NsPerOp,
			AllocsPerOp: r.AllocsPerOp,
			BytesPerOp:  r.BytesPerOp,
		})
		fmt.Printf("%-16s %12.0f ns/op %8d allocs/op %10d B/op  (n=%d)\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.Iterations)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("cvbench: wrote %s\n", out)
	return nil
}

var benchNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// requiredScenarios is the scenario roster a valid report must cover.
// Adding a scenario to internal/benchserve means adding it here, so a
// report from a stale binary (or a suite that silently dropped a
// scenario) fails validation instead of passing with a hole in it.
var requiredScenarios = []string{
	"build", "query_sample", "query_exact", "append",
	"exec_interpreted", "exec_planned",
	"qos_baseline", "qos_coalesced", "qos_shed",
	"metrics_render",
}

// checkBenchReport validates a BENCH_serve.json document: the schema
// tag, the identity fields, scenario-roster completeness, and
// per-scenario sanity (names, positive iteration counts and timings).
// The CI smoke runs it right after -bench serve -benchtime 1x, so a
// malformed report fails the build.
func checkBenchReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var report benchReport
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&report); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if report.Schema != benchSchema {
		return fmt.Errorf("%s: schema is %q, want %q", path, report.Schema, benchSchema)
	}
	if report.Version == "" || report.Go == "" {
		return fmt.Errorf("%s: version/go identity fields are required", path)
	}
	if _, err := time.Parse(time.RFC3339, report.Timestamp); err != nil {
		return fmt.Errorf("%s: bad timestamp: %w", path, err)
	}
	if len(report.Scenarios) == 0 {
		return fmt.Errorf("%s: no scenarios", path)
	}
	seen := map[string]bool{}
	for i, s := range report.Scenarios {
		switch {
		case !benchNameRE.MatchString(s.Name):
			return fmt.Errorf("%s: scenario %d has bad name %q", path, i, s.Name)
		case seen[s.Name]:
			return fmt.Errorf("%s: duplicate scenario %q", path, s.Name)
		case s.Iterations <= 0:
			return fmt.Errorf("%s: scenario %q ran %d iterations", path, s.Name, s.Iterations)
		case s.NsPerOp < 0 || s.AllocsPerOp < 0 || s.BytesPerOp < 0:
			return fmt.Errorf("%s: scenario %q has negative measurements", path, s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range requiredScenarios {
		if !seen[name] {
			return fmt.Errorf("%s: scenario %q missing from report", path, name)
		}
	}
	return nil
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cvbench:", err)
		os.Exit(1)
	}
}
