package plan_test

// Deterministic unit tests for the planner's edges: rejections (the
// same queries the interpreter rejects), schema re-binding, the
// rows/weights contract, and a handful of semantic corners pinned as
// fixed cases (the randomized oracle in differential_test.go covers
// the same ground statistically; these are the human-readable
// counterexamples-by-construction).

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

func miniTable(t *testing.T) *table.Table {
	t.Helper()
	tbl := table.New("mini", table.Schema{
		{Name: "cat", Kind: table.String},
		{Name: "tag", Kind: table.String},
		{Name: "v", Kind: table.Float},
		{Name: "n", Kind: table.Int},
	})
	rows := []struct {
		cat, tag string
		v        float64
		n        int64
	}{
		{"a", "x", 1.5, 1}, {"b", "y", -2, 2}, {"a", "a", 0, 3},
		{"c", "x", 10, 4}, {"b", "b", 7.25, 5}, {"a", "x", math.Pi, 6},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.cat, r.tag, r.v, r.n); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func mustPlan(t *testing.T, tbl *table.Table, sql string) *plan.Plan {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Compile(tbl, q)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	return p
}

// runBoth executes sql through both executors and requires bit-equal
// aggregates, returning the interpreter's result.
func runBoth(t *testing.T, tbl *table.Table, sql string) *exec.Result {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(tbl, q)
	if err != nil {
		t.Fatalf("compile %q: %v", sql, err)
	}
	want, err := exec.Run(tbl, q)
	if err != nil {
		t.Fatalf("interpret %q: %v", sql, err)
	}
	got, err := p.Execute(tbl, nil, nil)
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	if d := diffResults(want, got); d != "" {
		t.Fatalf("divergence on %q: %s", sql, d)
	}
	return want
}

func TestPlanSemanticCorners(t *testing.T) {
	tbl := miniTable(t)
	for _, sql := range []string{
		// boolean under a numeric aggregate: asNum(bool)
		"SELECT cat, SUM((v > 1)) FROM mini GROUP BY cat",
		// string column vs column, all six operators
		"SELECT COUNT_IF(cat = tag), COUNT_IF(cat != tag), COUNT_IF(cat < tag), COUNT_IF(cat <= tag), COUNT_IF(cat > tag), COUNT_IF(cat >= tag) FROM mini",
		// literal-vs-column orientations
		"SELECT COUNT_IF('b' < cat), COUNT_IF(cat > 'b'), COUNT_IF('b' = 'b'), COUNT_IF('a' != 'b') FROM mini",
		// mixed-kind comparisons constant-fold: != true, everything else false
		"SELECT COUNT_IF(cat = 1), COUNT_IF(cat != 1), COUNT_IF(cat < 1), COUNT_IF(1 >= tag) FROM mini",
		// string in arithmetic reads the num field (0); under an
		// aggregate it goes through asNum (NaN)
		"SELECT SUM(cat + v), MIN(cat) FROM mini",
		// division by zero is NaN, which MIN/MAX must propagate like
		// the interpreter (first-NaN sticks)
		"SELECT MIN(v / 0), MAX(v / 0), AVG(n / n) FROM mini",
		// HAVING with BETWEEN and NOT over aggregate expressions
		"SELECT cat, COUNT(*) FROM mini GROUP BY cat HAVING COUNT(*) BETWEEN 2 AND 9 AND NOT SUM(v) < 0",
		// IF with boolean branches in a predicate
		"SELECT COUNT_IF(IF(v > 0, cat = 'a', cat = 'b')) FROM mini",
		// IF with mixed-kind branches: the string branch reads as NaN
		// under an aggregate
		"SELECT AVG(IF(v > 0, v, cat)) FROM mini",
		// IF with string branches under an aggregate (NaN either way)
		"SELECT AVG(IF(v > 0, cat, tag)) FROM mini",
		// string-branch IF compared, tested for truth, in arithmetic and
		// as an IN operand
		"SELECT cat, COUNT_IF(IF(n > 2, cat, tag) = 'a'), COUNT_IF(IF(v > 0, cat, 'b') < tag), SUM(IF(n > 3, 'x', n) + 1) FROM mini GROUP BY cat",
		"SELECT COUNT_IF(IF(v > 1, tag, '')), COUNT_IF(IF(n > 2, cat, v > 0) IN ('a', 1)) FROM mini WHERE IF(n = 1, cat, n) != 'b'",
		// IF against IF, as a BETWEEN operand, and nested in another
		// IF's condition and under unary minus
		"SELECT COUNT_IF(IF(v > 0, cat, n) = IF(n > 2, tag, v)), COUNT_IF(IF(v > 0, cat, n) < IF(n > 2, 'b', v > 1)) FROM mini",
		"SELECT COUNT_IF(IF(n > 3, cat, v) BETWEEN IF(n > 1, 'a', 0) AND 'b'), SUM(IF(IF(v > 0, cat, n) = 'a', v, 'x')), AVG(-IF(n > 2, v > 1, cat)) FROM mini",
		// empty result: nothing passes the filter
		"SELECT cat, AVG(v) FROM mini WHERE v > 1e9 GROUP BY cat",
	} {
		runBoth(t, tbl, sql)
	}
}

func TestPlanRejections(t *testing.T) {
	tbl := miniTable(t)
	for _, sql := range []string{
		"SELECT AVG(nope) FROM mini",
		"SELECT AVG(v) FROM elsewhere",
		"SELECT cat FROM mini",                    // no aggregate outputs
		"SELECT v, AVG(v) FROM mini",              // ungrouped column ref
		"SELECT cat, AVG(v) FROM mini GROUP BY v", // grouping a Float
	} {
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := plan.Compile(tbl, q); err == nil {
			t.Errorf("Compile(%q) succeeded, want error", sql)
		}
		if _, err := exec.Run(tbl, q); err == nil {
			t.Errorf("exec.Run(%q) succeeded; the planner must reject only what the interpreter rejects", sql)
		}
	}
}

func TestPlanBindCheck(t *testing.T) {
	tbl := miniTable(t)
	p := mustPlan(t, tbl, "SELECT cat, AVG(v) FROM mini GROUP BY cat")

	// same schema, new snapshot: fine (the streaming case)
	again := miniTable(t)
	if _, err := p.Execute(again, nil, nil); err != nil {
		t.Fatalf("re-binding an identical schema should work: %v", err)
	}

	// column count changed
	fewer := table.New("mini", table.Schema{{Name: "cat", Kind: table.String}})
	if _, err := p.Execute(fewer, nil, nil); err == nil {
		t.Fatal("executing against a narrower schema must fail")
	}

	// column kind changed
	mutated := table.New("mini", table.Schema{
		{Name: "cat", Kind: table.String},
		{Name: "tag", Kind: table.String},
		{Name: "v", Kind: table.Int}, // was Float
		{Name: "n", Kind: table.Int},
	})
	if _, err := p.Execute(mutated, nil, nil); err == nil {
		t.Fatal("executing against a kind-changed schema must fail")
	} else if !strings.Contains(err.Error(), "changed kind") {
		t.Fatalf("want a changed-kind error, got: %v", err)
	}
}

func TestPlanExecuteRowWeightContract(t *testing.T) {
	tbl := miniTable(t)
	p := mustPlan(t, tbl, "SELECT cat, AVG(v) FROM mini GROUP BY cat")
	if _, err := p.Execute(tbl, []int32{0, 1}, []float64{2}); err == nil {
		t.Fatal("mismatched rows/weights lengths must fail")
	}
	res, err := p.Execute(tbl, []int32{0, 0, 5}, []float64{2, 3, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.SE == nil {
			t.Fatal("weighted execution must attach SE estimates")
		}
	}
}
