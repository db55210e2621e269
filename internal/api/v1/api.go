// Package v1 is the versioned wire contract of the cvserve HTTP API:
// every request, response and error body that crosses the wire is
// declared here, once, as an exported struct. The server
// (internal/serve) marshals these types and nothing else; the typed Go
// client (internal/client) unmarshals the same types — both sides
// compile against one source of truth, so a field added or renamed
// here is a visible API change rather than a silent drift between two
// private structs.
//
// The package is pure data: no HTTP, no registry imports, no behavior
// beyond JSON tags, the error-code table (error.go) and the route
// table (routes.go). v2, if it ever exists, is a sibling package — v1
// stays frozen for old clients.
package v1

import "time"

// Agg is one aggregation column of a workload query, with an optional
// relative weight (0 means 1).
type Agg struct {
	Column string  `json:"column"`
	Weight float64 `json:"weight,omitempty"`
}

// QuerySpec is one workload query of a build or stream registration:
// the group-by attributes (the stratification) and the aggregation
// columns the sample must estimate well.
type QuerySpec struct {
	GroupBy []string `json:"group_by"`
	Aggs    []Agg    `json:"aggs"`
}

// Norm values for BuildRequest.Norm and StreamRequest.Norm.
const (
	NormL2   = "l2"   // minimize the ℓ2 norm of per-group CVs (default)
	NormLInf = "linf" // minimize the worst per-group CV
	NormLp   = "lp"   // ℓp norm; requires P >= 1
)

// BuildRequest is the POST /v1/samples request body.
type BuildRequest struct {
	Table   string      `json:"table"`
	Queries []QuerySpec `json:"queries"`
	// Budget is the absolute row budget; Rate (in (0, 1]) is the
	// fractional alternative; TargetCV asks the server to *autoscale*
	// the budget instead — find the smallest one whose predicted worst
	// per-group CV meets the target. Exactly one of the three must be
	// set (or none, when the daemon has a -default-target-cv).
	Budget   int     `json:"budget,omitempty"`
	Rate     float64 `json:"rate,omitempty"`
	TargetCV float64 `json:"target_cv,omitempty"`
	// MaxBudget caps an autoscaled search (0 = table rows); requires
	// TargetCV. When the cap cannot meet the target the response is
	// best-effort: TargetMet false, AchievedCV reporting the guarantee
	// actually obtained.
	MaxBudget int     `json:"max_budget,omitempty"`
	Norm      string  `json:"norm,omitempty"` // NormL2 (default), NormLInf, NormLp
	P         float64 `json:"p,omitempty"`    // exponent for NormLp
	Seed      int64   `json:"seed,omitempty"`
	// Debug returns the request's per-phase trace inline on the
	// response (Sample.Trace).
	Debug bool `json:"debug,omitempty"`
}

// Sample describes one built sample: the POST /v1/samples and
// POST /v1/tables/{name}/refresh response body, and one element of
// SamplesList.
type Sample struct {
	Key     string    `json:"key"`
	Table   string    `json:"table"`
	Budget  int       `json:"budget"`
	Rows    int       `json:"rows"`
	GroupBy []string  `json:"group_by"`
	BuiltAt time.Time `json:"built_at"`
	BuildMS float64   `json:"build_ms"`
	// Hits is how many times this sample (this key, across streaming
	// generations) was reused: queries answered plus cached build
	// fetches.
	Hits int64 `json:"hits"`
	// SizeBytes is the sample's resident-memory estimate charged
	// against the daemon's -max-sample-bytes budget.
	SizeBytes int64 `json:"size_bytes"`
	// Generation is the streaming publication number (absent for
	// static builds).
	Generation uint64 `json:"generation,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	// Autoscaled builds only: the requested CV goal, the budget the
	// search chose (== Budget, surfaced under the name callers look
	// for), the predicted worst per-group CV at that budget (absent when
	// it is infinite — an unsampleable stratum), and whether the target
	// was met (false = max_budget bound the search, best-effort sample).
	TargetCV     float64  `json:"target_cv,omitempty"`
	ChosenBudget int      `json:"chosen_budget,omitempty"`
	AchievedCV   *float64 `json:"achieved_cv,omitempty"`
	TargetMet    *bool    `json:"target_met,omitempty"`
	// Trace is the request's per-phase timing, present only when the
	// request set debug=true.
	Trace *RequestTrace `json:"trace,omitempty"`
}

// SamplesList is the GET /v1/samples response body.
type SamplesList struct {
	Samples []Sample `json:"samples"`
	// ResidentBytes/MaxBytes/Evictions are the daemon-wide sample
	// memory-budget counters (MaxBytes 0 = unbounded).
	ResidentBytes int64 `json:"resident_bytes"`
	MaxBytes      int64 `json:"max_bytes"`
	Evictions     int64 `json:"evictions"`
}

// Table describes one registered table in GET /v1/tables.
type Table struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	// Streaming tables additionally report their live state: the
	// latest published generation and how many appended rows the
	// published sample does not cover yet.
	Streaming  bool   `json:"streaming,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	Pending    int    `json:"pending,omitempty"`
}

// TablesList is the GET /v1/tables response body.
type TablesList struct {
	Tables []Table `json:"tables"`
}

// Query modes for QueryRequest.Mode.
const (
	ModeAuto   = "auto"   // covering sample if built, exact otherwise (default)
	ModeSample = "sample" // fail without a covering sample
	ModeExact  = "exact"  // always scan the full table
)

// QueryRequest is the POST /v1/query request body.
type QueryRequest struct {
	SQL  string `json:"sql"`
	Mode string `json:"mode,omitempty"` // ModeAuto (default), ModeSample, ModeExact
	// Compare also runs the exact query and reports each group's true
	// relative error next to its estimate (ops/debugging aid).
	Compare bool `json:"compare,omitempty"`
	// TargetCV answers from an autoscaled sample built for this query's
	// own workload: the smallest budget whose predicted worst per-group
	// CV meets the target. Cached per (table, workload, target), so
	// repeat and concurrent queries share one build. Incompatible with
	// ModeExact. MaxBudget caps the search (0 = table rows).
	TargetCV  float64 `json:"target_cv,omitempty"`
	MaxBudget int     `json:"max_budget,omitempty"`
	// Debug returns the request's per-phase trace inline on the
	// response (QueryResponse.Trace).
	Debug bool `json:"debug,omitempty"`
	// Explain returns the compiled physical plan that answered the
	// query (QueryResponse.Plan).
	Explain bool `json:"explain,omitempty"`
}

// ExecutorColumnar is the one value of QueryResponse.Executor: the
// compiled-plan vectorized executor (internal/plan), typed per-column
// loops over row batches, which answers every query.
const ExecutorColumnar = "columnar"

// PlanNode is one operator of a compiled physical plan, returned on
// QueryResponse.Plan when the request sets explain=true. Children are
// the operator's inputs (a single-input chain for this engine:
// output → sort → aggregate → filter → scan). Detail holds
// operator-specific attributes; map marshaling sorts keys, so the JSON
// rendering of a plan is byte-stable and suitable for golden tests.
type PlanNode struct {
	Op       string         `json:"op"`
	Detail   map[string]any `json:"detail,omitempty"`
	Children []*PlanNode    `json:"children,omitempty"`
}

// Group is one output group of a query response.
type Group struct {
	Set  int        `json:"set"`
	Key  []string   `json:"key"`
	Aggs []*float64 `json:"aggs"`
	// SE are the per-aggregate standard errors (approximate answers
	// only; null where no estimator applies).
	SE []*float64 `json:"se,omitempty"`
	// RelErr are the true per-aggregate relative errors (compare mode
	// only).
	RelErr []*float64 `json:"rel_err,omitempty"`
}

// QueryResponse is the POST /v1/query response body.
type QueryResponse struct {
	Table      string `json:"table"`
	Exact      bool   `json:"exact"`
	SampleKey  string `json:"sample_key,omitempty"`
	SampleRows int    `json:"sample_rows,omitempty"`
	// Generation is the streaming publication the answer came from
	// (absent for static samples and exact answers).
	Generation uint64 `json:"generation,omitempty"`
	// Autoscaled answers only: the CV goal of the sample that answered,
	// the budget the search chose, the predicted worst per-group CV at
	// that budget (absent when infinite) and whether the goal was met.
	TargetCV     float64  `json:"target_cv,omitempty"`
	ChosenBudget int      `json:"chosen_budget,omitempty"`
	AchievedCV   *float64 `json:"achieved_cv,omitempty"`
	TargetMet    *bool    `json:"target_met,omitempty"`
	// Degraded reports that load shedding answered this target_cv query
	// from the cheapest already-resident sample instead of building (or
	// queueing for) the autoscaled one: the estimate is honest but the
	// requested CV goal was not enforced — AchievedCV (when present)
	// reports the guarantee of the sample that actually answered.
	Degraded  bool       `json:"degraded,omitempty"`
	Sets      [][]string `json:"sets"`
	AggLabels []string   `json:"agg_labels"`
	Groups    []Group    `json:"groups"`
	// Executor names the engine that computed the answer; always
	// ExecutorColumnar.
	Executor string `json:"executor,omitempty"`
	// Plan is the compiled physical plan, present only when the request
	// set explain=true.
	Plan *PlanNode `json:"plan,omitempty"`
	// Trace is the request's per-phase timing, present only when the
	// request set debug=true.
	Trace *RequestTrace `json:"trace,omitempty"`
}

// StreamRequest is the POST /v1/tables/{name}/stream request body:
// the workload and budget the live sample must serve plus the refresh
// policy. Omitted policy fields fall back to the daemon's
// -refresh-rows / -refresh-interval defaults.
type StreamRequest struct {
	Queries []QuerySpec `json:"queries"`
	// Budget is the absolute per-generation row budget; Rate (in
	// (0, 1]) spends a fraction of the current rows instead, so the
	// sample grows with the stream. TargetCV re-runs the autoscale
	// search at every refresh instead, so the sample keeps the CV goal
	// as the table grows; MaxBudget caps each search (0 = current
	// rows). Exactly one of budget, rate and target_cv must be set.
	Budget    int     `json:"budget,omitempty"`
	Rate      float64 `json:"rate,omitempty"`
	TargetCV  float64 `json:"target_cv,omitempty"`
	MaxBudget int     `json:"max_budget,omitempty"`
	Norm      string  `json:"norm,omitempty"`
	P         float64 `json:"p,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Capacity is the per-stratum reservoir capacity (the streaming
	// memory/accuracy knob; 0 = server default).
	Capacity int `json:"capacity,omitempty"`
	// RefreshRows republishes after this many appended rows. 0 (or
	// omitted) inherits the daemon's -refresh-rows default; a negative
	// value explicitly disables the threshold even when a default is
	// set.
	RefreshRows int `json:"refresh_rows,omitempty"`
	// RefreshInterval republishes periodically, as a Go duration
	// string like "30s". "" inherits the daemon's -refresh-interval
	// default; a negative duration like "-1s" explicitly disables the
	// ticker.
	RefreshInterval string `json:"refresh_interval,omitempty"`
}

// StreamState describes a live table: the POST /v1/tables/{name}/stream
// response body.
type StreamState struct {
	Table      string `json:"table"`
	Streaming  bool   `json:"streaming"`
	Generation uint64 `json:"generation"`
	Rows       int    `json:"rows"`
	Pending    int    `json:"pending"`
}

// AppendRequest is the POST /v1/tables/{name}/rows request body: a
// batch of rows in schema order, loosely typed (JSON numbers for both
// float and int columns, strings for dictionary columns).
type AppendRequest struct {
	Rows [][]any `json:"rows"`
}

// AppendResponse is the POST /v1/tables/{name}/rows response body. The
// batch is not part of the published sample until the next refresh;
// Pending counts the rows waiting for one.
type AppendResponse struct {
	Table      string `json:"table"`
	Appended   int    `json:"appended"`
	Pending    int    `json:"pending"`
	Rows       int    `json:"rows"`
	Generation uint64 `json:"generation"`
}

// LatencySummary is one route's request-latency digest in Health:
// request count and p50/p95/p99 latency in milliseconds, estimated
// from a fixed-bucket histogram.
type LatencySummary struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// Health is the GET /healthz response body: liveness, build identity
// and the registry/latency counters fleet dashboards scrape.
type Health struct {
	Status string `json:"status"`
	// Version is the daemon build version (cvserve is built with
	// -ldflags "-X repro/internal/serve.Version=v1.2.3"; "dev" when
	// unset) and Go the toolchain that built it — together they let a
	// fleet operator tell daemons apart.
	Version string `json:"version"`
	Go      string `json:"go"`

	Tables              int   `json:"tables"`
	Samples             int   `json:"samples"`
	Builds              int64 `json:"builds"`
	Streams             int   `json:"streams"`
	Refreshes           int64 `json:"refreshes"`
	SampleHits          int64 `json:"sample_hits"`
	Shards              int   `json:"shards"`
	ResidentSampleBytes int64 `json:"resident_sample_bytes"`
	MaxSampleBytes      int64 `json:"max_sample_bytes"`
	Evictions           int64 `json:"evictions"`

	// Latency maps each served route pattern ("POST /v1/query", ...)
	// to its request-latency digest. Routes appear once they have
	// served at least one request.
	Latency map[string]LatencySummary `json:"latency,omitempty"`

	// StreamTables maps each live (streaming) table to its refresh
	// health — generation, refresh count and last-refresh duration — so
	// an operator can spot a stalled or slow stream from /healthz alone.
	StreamTables map[string]StreamHealth `json:"stream_tables,omitempty"`

	// Warnings lists operator-actionable conditions that do not fail
	// liveness — today, streaming tables whose in-memory buffer exceeds
	// the daemon's -ingest-horizon-rows.
	Warnings []string `json:"warnings,omitempty"`

	// QoS reports the admission-control front end; absent when the
	// daemon runs without one (no -max-inflight).
	QoS *QoSHealth `json:"qos,omitempty"`

	// Persistence reports the WAL/spill durability layer; absent when
	// the daemon runs without -data-dir.
	Persistence *PersistenceHealth `json:"persistence,omitempty"`
}

// PersistenceHealth is the durability layer's digest in Health: WAL
// footprint and lag, checkpoint/truncation activity, spill counts and
// the outcome of boot recovery.
type PersistenceHealth struct {
	// Dir is the data directory; Fsync the WAL durability policy
	// ("always", "interval" or "never").
	Dir   string `json:"dir"`
	Fsync string `json:"fsync"`
	// WalSegments / WalBytes total the live WAL segment files across
	// streaming tables.
	WalSegments int   `json:"wal_segments"`
	WalBytes    int64 `json:"wal_bytes"`
	// WalLagRecords is the number of WAL records past the last
	// checkpoint — the replay debt a crash right now would pay.
	WalLagRecords uint64 `json:"wal_lag_records"`
	// Checkpoints counts checkpoint cuts; TruncatedSegments the WAL
	// segments they deleted.
	Checkpoints       int64 `json:"checkpoints"`
	TruncatedSegments int64 `json:"truncated_segments"`
	// SpilledSamples is the number of spilled static samples on disk.
	SpilledSamples int `json:"spilled_samples"`
	// RecoveredTables / ReplayedRecords / TornTails / ReplayMS
	// summarize the boot recovery that produced this process's state.
	RecoveredTables int64   `json:"recovered_tables"`
	ReplayedRecords int64   `json:"replayed_records"`
	TornTails       int64   `json:"torn_tails"`
	ReplayMS        float64 `json:"replay_ms"`
	// Errors counts persistence faults (failed fsyncs, unreadable
	// spills); the daemon keeps serving from memory when one occurs.
	Errors int64 `json:"errors"`
}

// StreamHealth is one live table's refresh digest in Health.
type StreamHealth struct {
	// Generation is the latest published sample generation (each
	// publication increments it, so it doubles as a refresh count).
	Generation uint64 `json:"generation"`
	// LastRefreshMS is the duration of the most recent refresh build
	// (0 until the first refresh completes).
	LastRefreshMS float64 `json:"last_refresh_ms"`
	// Pending counts appended rows the published generation does not
	// cover yet.
	Pending int `json:"pending"`
	// RefreshErrors counts failed automatic refreshes.
	RefreshErrors int64 `json:"refresh_errors"`
	// ResidentRows is the stream's in-memory buffer size (every row
	// ingested so far); the row-horizon warning in Health.Warnings fires
	// off this number.
	ResidentRows int `json:"resident_rows"`
}

// QoSHealth is the admission-control front end's digest in Health.
type QoSHealth struct {
	// MaxInflight / MaxQueue are the configured capacity: requests
	// executing concurrently and requests parked waiting for a slot.
	MaxInflight int `json:"max_inflight"`
	MaxQueue    int `json:"max_queue"`
	// Inflight / Queued are the current occupancy.
	Inflight int `json:"inflight"`
	Queued   int `json:"queued"`
	// Admitted / Rejected / Shed count admission outcomes: requests
	// granted a slot (queued-then-admitted included), requests refused
	// with 429, and target_cv queries degraded to a resident sample
	// under pressure.
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	// Coalesced counts query requests that shared another request's
	// executor pass; Batches counts the passes that served more than one
	// request.
	Coalesced int64 `json:"coalesced"`
	Batches   int64 `json:"batches"`
	// TenantRejected counts requests refused by a per-tenant token
	// bucket (a subset of Rejected).
	TenantRejected int64 `json:"tenant_rejected"`
}
