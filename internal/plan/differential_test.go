package plan_test

// The differential oracle. The row interpreter (internal/exec) is the
// reference semantics of the engine; the columnar executor is an
// optimization that must be invisible. This harness generates
// randomized (table, query) cases — group-bys over datagen's synthetic
// OpenAQ and Bikes schemas with predicates, CUBE, HAVING, ORDER BY and
// LIMIT — runs every case through both executors, exact and weighted,
// and fails on ANY divergence: group keys, row order, aggregate
// values, standard-error estimates. Floats are compared bit-for-bit
// (math.Float64bits), so "close enough" does not exist here: the
// columnar executor is required to perform the same float64 operations
// in the same order as the interpreter.
//
// Every generated query must also compile — the planner accepts every
// query the interpreter accepts, so a Compile rejection is a planner
// regression, not a skip.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// genTable is one generation target: a table plus the column
// vocabulary the query generator draws from.
type genTable struct {
	tbl       *table.Table
	strCols   []string            // String columns (comparisons, IN, grouping)
	numCols   []string            // Float and Int columns (arithmetic, aggregates)
	groupCols []string            // groupable columns (String and Int)
	strVals   map[string][]string // sampled dictionary values per string column
}

var (
	oracleOnce   sync.Once
	oracleTables []*genTable
)

// oracleCorpus builds the generation targets once: OpenAQ and Bikes
// instances of varied size, cardinality and seed, including a
// deliberately tiny one so empty groups and single-row strata get
// exercised.
func oracleCorpus(t *testing.T) []*genTable {
	t.Helper()
	oracleOnce.Do(func() {
		type spec struct {
			build func() (*table.Table, error)
		}
		specs := []spec{
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 400, Countries: 3, Seed: 11})
			}},
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 900, Countries: 8, Seed: 12})
			}},
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 1500, Countries: 15, Seed: 13})
			}},
			{func() (*table.Table, error) {
				return datagen.OpenAQ(datagen.OpenAQConfig{Rows: 50, Countries: 2, Seed: 14})
			}},
			{func() (*table.Table, error) {
				return datagen.Bikes(datagen.BikesConfig{Rows: 600, Stations: 12, Seed: 15})
			}},
			{func() (*table.Table, error) {
				return datagen.Bikes(datagen.BikesConfig{Rows: 1200, Stations: 40, Seed: 16})
			}},
		}
		for _, s := range specs {
			tbl, err := s.build()
			if err != nil {
				panic(err)
			}
			oracleTables = append(oracleTables, newGenTable(tbl))
		}
	})
	return oracleTables
}

func newGenTable(tbl *table.Table) *genTable {
	gt := &genTable{tbl: tbl, strVals: map[string][]string{}}
	rng := rand.New(rand.NewSource(int64(tbl.NumRows())))
	for _, col := range tbl.Columns {
		name := col.Spec.Name
		switch col.Spec.Kind {
		case table.String:
			gt.strCols = append(gt.strCols, name)
			gt.groupCols = append(gt.groupCols, name)
			seen := map[string]bool{}
			for i := 0; i < 12 && tbl.NumRows() > 0; i++ {
				v := col.StringAt(rng.Intn(tbl.NumRows()))
				if !seen[v] {
					seen[v] = true
					gt.strVals[name] = append(gt.strVals[name], v)
				}
			}
		case table.Int:
			gt.numCols = append(gt.numCols, name)
			gt.groupCols = append(gt.groupCols, name)
		case table.Float:
			gt.numCols = append(gt.numCols, name)
		}
	}
	return gt
}

// --- query generation ---------------------------------------------------

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// genNumLit emits small literals that survive the %g render/reparse
// round trip exactly.
func genNumLit(rng *rand.Rand) string {
	v := float64(rng.Intn(200)-50) / 4
	return fmt.Sprintf("%g", v)
}

// genStrExpr emits a string-kinded leaf: a string column or a literal,
// usually a resident dictionary value.
func genStrExpr(rng *rand.Rand, gt *genTable) string {
	if len(gt.strCols) == 0 {
		return "'zzz-absent'"
	}
	col := pick(rng, gt.strCols)
	if rng.Intn(2) == 0 {
		return col
	}
	if vs := gt.strVals[col]; len(vs) > 0 && rng.Intn(5) != 0 {
		return "'" + strings.ReplaceAll(pick(rng, vs), "'", "''") + "'"
	}
	return "''"
}

// genAnyExpr emits an expression of any kind — numeric, boolean,
// string, or a nested IF of any kind — as an IF branch.
func genAnyExpr(rng *rand.Rand, gt *genTable, depth int) string {
	switch rng.Intn(4) {
	case 0:
		return genNumExpr(rng, gt, depth, true)
	case 1:
		return genBoolExpr(rng, gt, depth, true)
	case 2:
		if depth > 0 {
			return genIfExpr(rng, gt, depth-1)
		}
		fallthrough
	default:
		return genStrExpr(rng, gt)
	}
}

// genIfExpr emits an IF whose branches may differ in kind or be
// strings: the shape whose value kind varies by row, which the planner
// lowers at each consumer (asNum, num field, truthiness, comparison).
func genIfExpr(rng *rand.Rand, gt *genTable, depth int) string {
	return fmt.Sprintf("IF(%s, %s, %s)",
		genBoolExpr(rng, gt, depth, true), genAnyExpr(rng, gt, depth), genAnyExpr(rng, gt, depth))
}

// genNumExpr emits a numeric scalar expression. At depth 0 it bottoms
// out on columns and literals. When allowStr is set, a rare
// string-column leaf exercises the interpreter's string-in-arithmetic
// semantics (the value's num field, 0) and the NaN path when it lands
// directly under an aggregate; a mixed-kind IF does the same per row.
func genNumExpr(rng *rand.Rand, gt *genTable, depth int, allowStr bool) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(8) {
		case 0:
			return genNumLit(rng)
		case 1:
			if allowStr && len(gt.strCols) > 0 && rng.Intn(10) == 0 {
				return pick(rng, gt.strCols)
			}
			return pick(rng, gt.numCols)
		default:
			return pick(rng, gt.numCols)
		}
	}
	switch rng.Intn(8) {
	case 0:
		return fmt.Sprintf("(-%s)", genNumExpr(rng, gt, depth-1, allowStr))
	case 1:
		return fmt.Sprintf("ABS(%s)", genNumExpr(rng, gt, depth-1, allowStr))
	case 2:
		if rng.Intn(2) == 0 {
			return genIfExpr(rng, gt, depth-1)
		}
		return fmt.Sprintf("IF(%s, %s, %s)",
			genBoolExpr(rng, gt, depth-1, true),
			genNumExpr(rng, gt, depth-1, allowStr), genNumExpr(rng, gt, depth-1, allowStr))
	default:
		op := pick(rng, []string{"+", "-", "*", "/"})
		return fmt.Sprintf("(%s %s %s)",
			genNumExpr(rng, gt, depth-1, allowStr), op, genNumExpr(rng, gt, depth-1, allowStr))
	}
}

var cmpOps = []string{"=", "!=", "<", "<=", ">", ">="}

// genBoolExpr emits a predicate: numeric comparisons, string
// comparisons against (mostly resident) dictionary values, IN,
// BETWEEN, boolean combinators, and — rarely — the deliberately odd
// cases: a mixed-kind comparison (constant-folds), a comparison or IN
// over a mixed-kind IF, and an expression used for its truthiness
// (numeric, or a mixed-kind IF). allowTruthy gates the latter; the
// boolean-branch IF clears it so both its branches stay boolean.
func genBoolExpr(rng *rand.Rand, gt *genTable, depth int, allowTruthy bool) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(10) {
		case 0, 1, 2:
			if len(gt.strCols) > 0 {
				col := pick(rng, gt.strCols)
				lit := "'zzz-absent'"
				if vs := gt.strVals[col]; len(vs) > 0 && rng.Intn(5) != 0 {
					lit = "'" + strings.ReplaceAll(pick(rng, vs), "'", "''") + "'"
				}
				return fmt.Sprintf("(%s %s %s)", col, pick(rng, cmpOps), lit)
			}
			fallthrough
		case 3:
			if len(gt.strCols) > 0 {
				col := pick(rng, gt.strCols)
				var items []string
				for i, vs := 0, gt.strVals[col]; i < 1+rng.Intn(3) && len(vs) > 0; i++ {
					items = append(items, "'"+strings.ReplaceAll(pick(rng, vs), "'", "''")+"'")
				}
				if len(items) > 0 {
					return fmt.Sprintf("(%s IN (%s))", col, strings.Join(items, ", "))
				}
			}
			fallthrough
		case 4:
			lo := rng.Intn(40)
			return fmt.Sprintf("(%s BETWEEN %d AND %d)", pick(rng, gt.numCols), lo, lo+rng.Intn(60))
		case 5:
			if rng.Intn(4) == 0 && len(gt.strCols) > 0 {
				// mixed-kind comparison: constant-folds in the planner,
				// NaN-compares in the interpreter — must agree
				return fmt.Sprintf("(%s %s %s)", pick(rng, gt.strCols), pick(rng, cmpOps), genNumLit(rng))
			}
			fallthrough
		case 6:
			if rng.Intn(3) == 0 {
				// comparison / IN over an IF whose kind varies by row
				if rng.Intn(2) == 0 {
					return fmt.Sprintf("(%s IN (%s, %s))", genIfExpr(rng, gt, 0), genStrExpr(rng, gt), genNumLit(rng))
				}
				return fmt.Sprintf("(%s %s %s)", genIfExpr(rng, gt, 0), pick(rng, cmpOps), genAnyExpr(rng, gt, 0))
			}
			if len(gt.strCols) >= 2 {
				// string column vs column: lexicographic per row
				return fmt.Sprintf("(%s %s %s)",
					pick(rng, gt.strCols), pick(rng, cmpOps), pick(rng, gt.strCols))
			}
			fallthrough
		default:
			return fmt.Sprintf("(%s %s %s)",
				genNumExpr(rng, gt, 0, true), pick(rng, cmpOps), genNumExpr(rng, gt, 0, true))
		}
	}
	switch rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(NOT %s)", genBoolExpr(rng, gt, depth-1, allowTruthy))
	case 1:
		if allowTruthy {
			// numeric truthiness: WHERE x means WHERE x != 0
			return genNumExpr(rng, gt, depth-1, true)
		}
		fallthrough
	case 2:
		if allowTruthy && rng.Intn(2) == 0 {
			// truthiness of an IF whose kind varies by row
			return genIfExpr(rng, gt, depth-1)
		}
		return fmt.Sprintf("IF(%s, %s, %s)",
			genBoolExpr(rng, gt, depth-1, true),
			genBoolExpr(rng, gt, depth-1, false), genBoolExpr(rng, gt, depth-1, false))
	default:
		op := pick(rng, []string{"AND", "OR"})
		return fmt.Sprintf("(%s %s %s)",
			genBoolExpr(rng, gt, depth-1, allowTruthy), op, genBoolExpr(rng, gt, depth-1, allowTruthy))
	}
}

// genAggItem emits one aggregate select item (without alias).
func genAggItem(rng *rand.Rand, gt *genTable) string {
	switch rng.Intn(14) {
	case 0:
		return "COUNT(*)"
	case 1:
		return fmt.Sprintf("COUNT(%s)", genNumExpr(rng, gt, 1, true))
	case 2:
		return fmt.Sprintf("COUNT_IF(%s)", genBoolExpr(rng, gt, 1, true))
	case 3:
		return fmt.Sprintf("(SUM(%s) / COUNT(*))", pick(rng, gt.numCols))
	case 4:
		return fmt.Sprintf("(AVG(%s) + %s)", pick(rng, gt.numCols), genNumLit(rng))
	case 5:
		return fmt.Sprintf("(-SUM(%s))", genNumExpr(rng, gt, 1, true))
	case 6:
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"VAR", "STDDEV"}), pick(rng, gt.numCols))
	case 7:
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"MIN", "MAX"}), genNumExpr(rng, gt, 1, true))
	case 8:
		// boolean under a numeric aggregate: asNum(true)=1, asNum(false)=0
		return fmt.Sprintf("SUM(%s)", genBoolExpr(rng, gt, 1, true))
	case 9:
		// a mixed-kind or string IF as a numeric aggregate's argument
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"AVG", "SUM", "MIN", "MAX", "VAR"}), genIfExpr(rng, gt, 1))
	case 10:
		// ... and as COUNT_IF's predicate / COUNT's ignored argument
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"COUNT_IF", "COUNT"}), genIfExpr(rng, gt, 1))
	default:
		return fmt.Sprintf("%s(%s)", pick(rng, []string{"AVG", "SUM"}), genNumExpr(rng, gt, rng.Intn(3), true))
	}
}

// genQuery emits one complete, valid, plannable SQL query against gt.
func genQuery(rng *rand.Rand, gt *genTable) string {
	// group-by subset: 0, 1 or 2 groupable columns
	nGroup := rng.Intn(3)
	perm := rng.Perm(len(gt.groupCols))
	var groupBy []string
	for i := 0; i < nGroup && i < len(perm); i++ {
		groupBy = append(groupBy, gt.groupCols[perm[i]])
	}

	var selects []string
	selects = append(selects, groupBy...)
	nAgg := 1 + rng.Intn(3)
	var orderables []string // ORDER BY vocabulary: group cols, aliases, renderings
	orderables = append(orderables, groupBy...)
	for i := 0; i < nAgg; i++ {
		item := genAggItem(rng, gt)
		if rng.Intn(2) == 0 {
			alias := fmt.Sprintf("a%d", i)
			selects = append(selects, item+" AS "+alias)
			orderables = append(orderables, alias)
		} else {
			selects = append(selects, item)
		}
	}

	var sb strings.Builder
	sb.WriteString("SELECT " + strings.Join(selects, ", "))
	sb.WriteString(" FROM " + gt.tbl.Name)
	if rng.Intn(5) != 0 {
		sb.WriteString(" WHERE " + genBoolExpr(rng, gt, 1+rng.Intn(2), true))
	}
	if len(groupBy) > 0 {
		sb.WriteString(" GROUP BY " + strings.Join(groupBy, ", "))
		if rng.Intn(5) == 0 {
			sb.WriteString(" WITH CUBE")
		}
	}
	if rng.Intn(4) == 0 {
		sb.WriteString(" HAVING " + genHaving(rng, gt))
	}
	if rng.Intn(5) < 2 && len(orderables) > 0 {
		var keys []string
		for i := 0; i < 1+rng.Intn(2); i++ {
			k := pick(rng, orderables)
			if rng.Intn(2) == 0 {
				k += " DESC"
			}
			keys = append(keys, k)
		}
		sb.WriteString(" ORDER BY " + strings.Join(keys, ", "))
	}
	if rng.Intn(10) < 3 {
		fmt.Fprintf(&sb, " LIMIT %d", 1+rng.Intn(20))
	}
	return sb.String()
}

// genHaving emits a HAVING condition over aggregate expressions.
func genHaving(rng *rand.Rand, gt *genTable) string {
	leaf := func() string {
		return fmt.Sprintf("(%s %s %s)", genAggItem(rng, gt), pick(rng, cmpOps), genNumLit(rng))
	}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s %s %s)", leaf(), pick(rng, []string{"AND", "OR"}), leaf())
	case 1:
		return fmt.Sprintf("(NOT %s)", leaf())
	default:
		return leaf()
	}
}

// --- result comparison --------------------------------------------------

// sameF64 is bit-identity with NaN == NaN: the oracle's float equality.
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameStrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffResults reports the first divergence between the interpreter's
// result and the columnar executor's, or "" when bit-identical.
func diffResults(want, got *exec.Result) string {
	if !sameStrs(want.GroupAttrs, got.GroupAttrs) {
		return fmt.Sprintf("GroupAttrs: %v vs %v", want.GroupAttrs, got.GroupAttrs)
	}
	if len(want.Sets) != len(got.Sets) {
		return fmt.Sprintf("Sets: %d vs %d", len(want.Sets), len(got.Sets))
	}
	for i := range want.Sets {
		if !sameStrs(want.Sets[i], got.Sets[i]) {
			return fmt.Sprintf("Sets[%d]: %v vs %v", i, want.Sets[i], got.Sets[i])
		}
	}
	if !sameStrs(want.AggLabels, got.AggLabels) {
		return fmt.Sprintf("AggLabels: %v vs %v", want.AggLabels, got.AggLabels)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("row count: %d vs %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		w, g := &want.Rows[i], &got.Rows[i]
		if w.Set != g.Set {
			return fmt.Sprintf("row %d: Set %d vs %d", i, w.Set, g.Set)
		}
		if !sameStrs(w.Key, g.Key) {
			return fmt.Sprintf("row %d: Key %q vs %q", i, w.Key, g.Key)
		}
		if len(w.Aggs) != len(g.Aggs) {
			return fmt.Sprintf("row %d: %d aggs vs %d", i, len(w.Aggs), len(g.Aggs))
		}
		for j := range w.Aggs {
			if !sameF64(w.Aggs[j], g.Aggs[j]) {
				return fmt.Sprintf("row %d agg %d: %v (%#x) vs %v (%#x)", i, j,
					w.Aggs[j], math.Float64bits(w.Aggs[j]), g.Aggs[j], math.Float64bits(g.Aggs[j]))
			}
		}
		if (w.SE == nil) != (g.SE == nil) || len(w.SE) != len(g.SE) {
			return fmt.Sprintf("row %d: SE shape %v vs %v", i, w.SE, g.SE)
		}
		for j := range w.SE {
			if !sameF64(w.SE[j], g.SE[j]) {
				return fmt.Sprintf("row %d SE %d: %v (%#x) vs %v (%#x)", i, j,
					w.SE[j], math.Float64bits(w.SE[j]), g.SE[j], math.Float64bits(g.SE[j]))
			}
		}
	}
	return ""
}

// --- the oracle ---------------------------------------------------------

// oracleCase runs one generated case through both executors, exact and
// weighted, and fails on any divergence.
func oracleCase(t *testing.T, gt *genTable, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sql := genQuery(rng, gt)

	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("case %d: generator emitted unparseable SQL %q: %v", seed, sql, err)
	}
	p, err := plan.Compile(gt.tbl, q)
	if err != nil {
		t.Fatalf("case %d: planner rejected %q: %v", seed, sql, err)
	}

	// exact path
	want, err := exec.Run(gt.tbl, q)
	if err != nil {
		t.Fatalf("case %d: interpreter rejected %q: %v", seed, sql, err)
	}
	got, err := p.Execute(gt.tbl, nil, nil)
	if err != nil {
		t.Fatalf("case %d: columnar executor failed on %q: %v", seed, sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("case %d: exact divergence on %q:\n  %s", seed, sql, d)
	}

	// weighted path: a random multiset of rows with non-unit weights
	n := 1 + rng.Intn(gt.tbl.NumRows())
	rows := make([]int32, n)
	weights := make([]float64, n)
	for i := range rows {
		rows[i] = int32(rng.Intn(gt.tbl.NumRows()))
		weights[i] = 0.25 + rng.Float64()*50
	}
	want, err = exec.RunWeighted(gt.tbl, q, rows, weights)
	if err != nil {
		t.Fatalf("case %d: weighted interpreter rejected %q: %v", seed, sql, err)
	}
	got, err = p.Execute(gt.tbl, rows, weights)
	if err != nil {
		t.Fatalf("case %d: weighted columnar executor failed on %q: %v", seed, sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("case %d: weighted divergence on %q:\n  %s", seed, sql, d)
	}
}

// TestDifferentialOracle is the headline correctness gate: 1200
// randomized cases (150 under -short), sharded across parallel
// subtests so the executors also run concurrently under -race.
func TestDifferentialOracle(t *testing.T) {
	tables := oracleCorpus(t)
	cases := 1200
	if testing.Short() {
		cases = 150
	}
	const shards = 8
	per := (cases + shards - 1) / shards
	for s := 0; s < shards; s++ {
		s := s
		t.Run(fmt.Sprintf("shard%d", s), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < per; i++ {
				seed := int64(s*per + i)
				gt := tables[int(seed)%len(tables)]
				oracleCase(t, gt, seed)
			}
		})
	}
}
