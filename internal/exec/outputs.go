package exec

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sqlparse"
	"repro/internal/table"
)

// Outputs is the executor-independent half of a compiled query: the
// GROUP BY binding, the grouping sets, the aggregate select items as
// combiners over finalized aggregate-site values, HAVING, ORDER BY and
// LIMIT. Both executors compile through CompileOutputs, each
// registering the aggregate call sites in its own representation, and
// turn per-group accumulators into rows through Row, so they accept the
// same queries and finish groups the same way; they differ only in how
// rows reach the accumulators.
type Outputs struct {
	GroupAttrs []string // the GROUP BY attributes
	GroupIdx   []int    // table column index per GROUP BY attribute
	// Sets are the grouping sets in evaluation order: for a plain
	// GROUP BY exactly one (every attribute); WITH CUBE adds every
	// subset down to the empty grand total. Each set lists positions
	// into GroupAttrs.
	Sets      [][]int
	AggLabels []string // labels of the aggregate select items
	Limit     int

	setNames [][]string
	kinds    []AggKind // per registered aggregate site
	items    []func(siteVals []float64) float64
	// itemSite[i] is the site index when select item i is a bare
	// aggregate call (SE reportable), else -1.
	itemSite []int
	having   func(siteVals []float64) bool // nil when absent
	orderBy  []orderSpec
}

// SiteFunc registers the next aggregate call site with the executor:
// its kind and its argument (nil for COUNT(*)). It returns the
// executor's error for an argument it cannot compile.
type SiteFunc func(kind AggKind, arg sqlparse.Expr) error

var aggKinds = map[string]AggKind{
	"AVG": AggAvg, "SUM": AggSum, "COUNT": AggCount, "COUNT_IF": AggCountIf,
	"MIN": AggMin, "MAX": AggMax, "VAR": AggVar, "STDDEV": AggStdDev,
}

// CompileOutputs validates everything of q but its WHERE clause
// against tbl, calling site once per aggregate call in registration
// order (select items left to right, then HAVING); site i is the i-th
// accumulator Row reads.
func CompileOutputs(tbl *table.Table, q *sqlparse.Query, site SiteFunc) (*Outputs, error) {
	if q.From != "" && !strings.EqualFold(q.From, tbl.Name) {
		return nil, fmt.Errorf("exec: query targets table %q, got %q", q.From, tbl.Name)
	}
	o := &Outputs{GroupAttrs: append([]string(nil), q.GroupBy...), Limit: q.Limit}
	grouped := map[string]bool{}
	for _, g := range q.GroupBy {
		idx := tbl.ColumnIndex(g)
		if idx < 0 {
			return nil, fmt.Errorf("exec: unknown group-by column %q", g)
		}
		if tbl.Columns[idx].Spec.Kind == table.Float {
			return nil, fmt.Errorf("exec: cannot group by float column %q", g)
		}
		o.GroupIdx = append(o.GroupIdx, idx)
		grouped[g] = true
	}
	if q.Cube && len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("exec: WITH CUBE requires GROUP BY columns")
	}

	// grouping sets
	if q.Cube {
		n := len(q.GroupBy)
		for mask := (1 << n) - 1; mask >= 0; mask-- {
			var pos []int
			var names []string
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					pos = append(pos, i)
					names = append(names, q.GroupBy[i])
				}
			}
			o.Sets = append(o.Sets, pos)
			o.setNames = append(o.setNames, names)
		}
	} else {
		pos := make([]int, len(q.GroupBy))
		for i := range pos {
			pos[i] = i
		}
		o.Sets = append(o.Sets, pos)
		o.setNames = append(o.setNames, append([]string(nil), q.GroupBy...))
	}

	// select items: plain grouped columns or aggregate expressions
	c := &outputCompiler{o: o, site: site}
	for _, item := range q.Select {
		if ref, ok := item.Expr.(*sqlparse.ColumnRef); ok {
			if !grouped[ref.Name] {
				return nil, fmt.Errorf("exec: column %q must appear in GROUP BY or inside an aggregate", ref.Name)
			}
			continue // carried in the group key
		}
		if !sqlparse.HasAggregate(item.Expr) {
			return nil, fmt.Errorf("exec: select item %q is neither a grouped column nor an aggregate", item.Label())
		}
		siteBefore := len(o.kinds)
		combine, err := c.aggItem(item.Expr)
		if err != nil {
			return nil, err
		}
		idx := -1
		if _, bare := item.Expr.(*sqlparse.FuncCall); bare && len(o.kinds) == siteBefore+1 {
			idx = siteBefore
		}
		o.items = append(o.items, combine)
		o.itemSite = append(o.itemSite, idx)
		o.AggLabels = append(o.AggLabels, item.Label())
	}
	if len(o.items) == 0 {
		return nil, fmt.Errorf("exec: query has no aggregate outputs")
	}
	if q.Having != nil {
		h, err := c.having(q.Having)
		if err != nil {
			return nil, err
		}
		o.having = h
	}
	if len(q.OrderBy) > 0 {
		specs, err := resolveOrderBy(q)
		if err != nil {
			return nil, err
		}
		o.orderBy = specs
	}
	return o, nil
}

// outputCompiler registers aggregate sites while compiling select items
// and HAVING.
type outputCompiler struct {
	o    *Outputs
	site SiteFunc
}

// aggItem compiles a select expression that contains aggregate calls
// into (a) registered aggregate sites and (b) a combiner applied to the
// finalized site values (supporting e.g. SUM(a)/COUNT(*)).
func (c *outputCompiler) aggItem(e sqlparse.Expr) (func([]float64) float64, error) {
	switch n := e.(type) {
	case *sqlparse.FuncCall:
		if sqlparse.AggFuncs[n.Name] {
			kind := aggKinds[n.Name]
			var arg sqlparse.Expr
			if n.Star {
				if kind != AggCount {
					return nil, fmt.Errorf("exec: %s(*) is not valid", n.Name)
				}
			} else {
				if len(n.Args) != 1 {
					return nil, fmt.Errorf("exec: %s takes exactly one argument", n.Name)
				}
				if sqlparse.HasAggregate(n.Args[0]) {
					return nil, fmt.Errorf("exec: nested aggregates are not supported")
				}
				arg = n.Args[0]
			}
			if err := c.site(kind, arg); err != nil {
				return nil, err
			}
			idx := len(c.o.kinds)
			c.o.kinds = append(c.o.kinds, kind)
			return func(vals []float64) float64 { return vals[idx] }, nil
		}
		return nil, fmt.Errorf("exec: scalar function %s cannot be an output without an enclosing aggregate", n.Name)
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "+", "-", "*", "/":
		default:
			return nil, fmt.Errorf("exec: operator %q not supported over aggregates", n.Op)
		}
		left, err := c.aggItem(n.Left)
		if err != nil {
			return nil, err
		}
		right, err := c.aggItem(n.Right)
		if err != nil {
			return nil, err
		}
		op := n.Op
		return func(vals []float64) float64 {
			a, b := left(vals), right(vals)
			switch op {
			case "+":
				return a + b
			case "-":
				return a - b
			case "*":
				return a * b
			default:
				if b == 0 {
					return math.NaN()
				}
				return a / b
			}
		}, nil
	case *sqlparse.UnaryExpr:
		if n.Op != "-" {
			return nil, fmt.Errorf("exec: operator %q not supported over aggregates", n.Op)
		}
		inner, err := c.aggItem(n.Expr)
		if err != nil {
			return nil, err
		}
		return func(vals []float64) float64 { return -inner(vals) }, nil
	case *sqlparse.NumberLit:
		v := n.Value
		return func([]float64) float64 { return v }, nil
	}
	return nil, fmt.Errorf("exec: unsupported aggregate expression %T", e)
}

// having compiles a HAVING expression: boolean combinations of
// comparisons between aggregate expressions and numeric literals.
// References to plain columns are rejected (standard SQL would allow
// grouped columns; restricting to aggregates keeps the surface the
// paper's workloads need while staying unambiguous under CUBE, where a
// grouped column is absent from some grouping sets).
func (c *outputCompiler) having(e sqlparse.Expr) (func([]float64) bool, error) {
	switch n := e.(type) {
	case *sqlparse.BinaryExpr:
		switch n.Op {
		case "AND", "OR":
			left, err := c.having(n.Left)
			if err != nil {
				return nil, err
			}
			right, err := c.having(n.Right)
			if err != nil {
				return nil, err
			}
			if n.Op == "AND" {
				return func(v []float64) bool { return left(v) && right(v) }, nil
			}
			return func(v []float64) bool { return left(v) || right(v) }, nil
		case "=", "!=", "<", "<=", ">", ">=":
			left, err := c.aggItem(n.Left)
			if err != nil {
				return nil, err
			}
			right, err := c.aggItem(n.Right)
			if err != nil {
				return nil, err
			}
			op := n.Op
			return func(v []float64) bool {
				a, b := left(v), right(v)
				switch op {
				case "=":
					return a == b
				case "!=":
					return a != b
				case "<":
					return a < b
				case "<=":
					return a <= b
				case ">":
					return a > b
				default:
					return a >= b
				}
			}, nil
		}
		return nil, fmt.Errorf("exec: operator %q not supported in HAVING", n.Op)
	case *sqlparse.UnaryExpr:
		if n.Op != "NOT" {
			return nil, fmt.Errorf("exec: operator %q not supported in HAVING", n.Op)
		}
		inner, err := c.having(n.Expr)
		if err != nil {
			return nil, err
		}
		return func(v []float64) bool { return !inner(v) }, nil
	case *sqlparse.BetweenExpr:
		x, err := c.aggItem(n.Expr)
		if err != nil {
			return nil, err
		}
		lo, err := c.aggItem(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.aggItem(n.Hi)
		if err != nil {
			return nil, err
		}
		return func(v []float64) bool {
			val := x(v)
			return val >= lo(v) && val <= hi(v)
		}, nil
	}
	return nil, fmt.Errorf("exec: HAVING must be a boolean expression over aggregates, got %T", e)
}

// NewResult returns the empty result the executor appends rows to.
func (o *Outputs) NewResult() *Result {
	return &Result{GroupAttrs: o.GroupAttrs, Sets: o.setNames, AggLabels: o.AggLabels}
}

// Row finalizes one group of grouping set set from its per-site
// accumulators: the output row, or false when HAVING drops the group.
// weighted attaches the standard-error estimates.
func (o *Outputs) Row(set int, key []string, accs []Acc, weighted bool) (Row, bool) {
	siteVals := make([]float64, len(o.kinds))
	for si, kind := range o.kinds {
		siteVals[si] = accs[si].Final(kind)
	}
	if o.having != nil && !o.having(siteVals) {
		return Row{}, false
	}
	aggs := make([]float64, len(o.items))
	for ii, combine := range o.items {
		aggs[ii] = combine(siteVals)
	}
	row := Row{Set: set, Key: key, Aggs: aggs}
	if weighted {
		row.SE = make([]float64, len(o.items))
		for ii, site := range o.itemSite {
			if site >= 0 {
				row.SE[ii] = accs[site].StdErr(o.kinds[site])
			} else {
				row.SE[ii] = math.NaN()
			}
		}
	}
	return row, true
}

// Finish applies ORDER BY and LIMIT to a result holding every
// surviving row.
func (o *Outputs) Finish(res *Result) { applyOrderAndLimit(res, o.orderBy, o.Limit) }
