// Command cvperf is the end-to-end benchmark of cvserve. It boots the
// daemon in-process exactly as cmd/cvserve wires it, listens on a
// loopback TCP port, drives it through the typed client with one of
// three seeded workloads, checks every answer, and prints the metrics.
//
//	bash cvperf/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// op sequence with spans around each layer and prints the per-layer
// metrics. The last line of standard output is one JSON object; the
// lines before it are the human-readable report. README.md documents
// the workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool   // tiny inputs, for the benchmark's own tests
	workdir string // scratch space inside the checkout, removed at exit
}

// metric is one reported figure. Count is the number of samples behind
// it (0 when it is a single measurement).
type metric struct {
	Name  string
	Value float64
	Unit  string
	Count int
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	notes     []string
}

func (r *report) add(name string, v float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Value: v, Unit: unit, Count: n})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.note("CHECK FAILED: "+format, args...)
}

// e2eMetrics and layerMetrics are the metric names the final JSON line
// carries with --trace 0 and --trace 1; BENCHMARK.json lists the same
// names (checked by TestBenchmarkJSONMatches).
var e2eMetrics = []string{
	"setup_s", "query_p50_ms", "queries_per_s", "heap_live_mb",
}

var layerMetrics = []string{
	"client.query_ms", "client.encode_us", "client.decode_ms", "client.resp_kb",
	"serve.http_ms", "serve.http_allocs",
	"registry.query_ms", "registry.find_us", "registry.find_hit_ratio", "registry.plan_hit_ratio",
	"registry.build_ms", "registry.evictions", "registry.append_ms", "registry.refresh_ms",
	"sqlparse.parse_us", "plan.compile_us", "plan.execute_ms", "plan.rows_per_group",
	"exec.fallbacks",
	"core.newplan_ms", "core.allocate_ms", "core.sample_ms",
	"ingest.append_ms", "ingest.refresh_ms",
	"wal.bytes_per_row", "wal.segments", "wal.replay_s",
	"table.load_s", "table.snapshot_us",
	"runtime.gc_cpu_share", "runtime.alloc_kb_per_op",
	"trace.qps_ratio",
}

var workloads = map[string]func(runConfig) (*report, error){
	"dashboard": runDashboard,
	"adhoc":     runAdhoc,
	"ingest":    runIngest,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("cvperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: dashboard, adhoc or ingest")
	seed := fl.Int64("seed", 1, "workload seed: drives the generated data and the op sequence")
	seconds := fl.Float64("seconds", 10, "length of the measured phase in seconds")
	trace := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	smoke := fl.Bool("smoke", false, "tiny inputs (the benchmark's own tests)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "cvperf: need --workload dashboard|adhoc|ingest, --seconds > 0, --trace 0|1\n")
		return 2
	}
	workdir, err := os.MkdirTemp(".bench_build", "cvperf-")
	if err != nil {
		fmt.Fprintln(stderr, "cvperf: scratch dir:", err)
		return 1
	}
	defer os.RemoveAll(workdir)
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, smoke: *smoke, workdir: workdir}

	fmt.Fprintf(stdout, "cvperf: workload=%s seed=%d seconds=%g trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s tree=%s\n",
		*name, cfg.seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		commit(), treeDigest())
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "cvperf:", err)
		return 1
	}
	want := e2eMetrics
	if cfg.trace {
		want = layerMetrics
	}
	for _, m := range rep.metrics {
		fmt.Fprintf(stdout, "metric %-24s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Count)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, "note", n)
	}
	if rep.attempted > 0 {
		fmt.Fprintf(stdout, "metric %-24s %14.6g %-6s n=%d\n", "error_rate",
			float64(rep.failed)/float64(rep.attempted), "ratio", rep.attempted)
	}
	line, err := finalLine(rep, want)
	if err != nil {
		fmt.Fprintln(stderr, "cvperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !rep.correct || rep.failed > 0 {
		fmt.Fprintf(stderr, "cvperf: %d of %d ops failed or were wrong\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// finalLine renders the result object with exactly the wanted metrics.
func finalLine(rep *report, want []string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := map[string]metric{}
	for _, m := range rep.metrics {
		got[m.Name] = m
	}
	out := map[string]value{}
	for _, name := range want {
		m, ok := got[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = value{Value: m.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct && rep.failed == 0, max(rep.attempted, 1), rep.failed, out})
	return string(b), err
}

// commit names the source revision when the working directory is a git
// checkout, else "unknown"; the tree digest identifies the code either
// way.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes the Go sources and go.mod files under the working
// directory, identifying the code measured even outside git.
func treeDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// rtStats is a snapshot of the runtime counters the per-layer runtime
// metrics are deltas of.
type rtStats struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStats{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// heapObjects reads the cumulative allocated-object count alone (the
// cheap read the per-call alloc counts use).
func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
