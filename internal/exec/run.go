package exec

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sqlparse"
	"repro/internal/table"
)

// Result is the output of a query evaluation.
type Result struct {
	// GroupAttrs are the query's GROUP BY attributes (empty for a full-
	// table aggregate).
	GroupAttrs []string
	// Sets are the evaluated grouping sets: for a plain GROUP BY there is
	// exactly one (the full attribute list); WITH CUBE adds every subset
	// including the empty (grand total) set.
	Sets [][]string
	// AggLabels are the labels of the aggregate select items, in select
	// order (plain group-by columns are carried in Row.Key, not here).
	AggLabels []string
	Rows      []Row

	// idx memoizes the (set, key) → aggregates map behind Lookup. It is
	// built at most once, so Rows must not be mutated after the first
	// Lookup call. Guarded by idxOnce; safe for concurrent Lookups.
	idxOnce sync.Once
	idx     map[string][]float64
}

// Row is one output group of one grouping set.
type Row struct {
	Set  int      // index into Result.Sets
	Key  []string // group values aligned with Sets[Set]
	Aggs []float64
	// SE holds estimated standard errors per aggregate, populated only
	// by RunWeighted (approximate answers) and only for outputs that are
	// a single AVG/SUM/COUNT/COUNT_IF call; other entries are NaN. The
	// estimator is the weighted linearization: for AVG,
	// sqrt(Σw²(x−x̄)²)/Σw; for totals, sqrt(Σw(w−1)x²) (the
	// Horvitz-Thompson with-replacement approximation).
	SE []float64
}

// keyString renders a row key for map lookups.
func keyString(set int, key []string) string {
	return fmt.Sprintf("%d\x00%s", set, strings.Join(key, "\x00"))
}

// Lookup finds the aggregates of a group within a grouping set. The
// first call builds a map index over all rows (amortized O(1) per
// lookup thereafter), so repeated Lookups over large results — e.g. a
// serving loop touching every exact group — stay linear overall rather
// than quadratic. Concurrent Lookups are safe; mutating Rows after the
// first Lookup is not.
func (r *Result) Lookup(set int, key []string) ([]float64, bool) {
	r.idxOnce.Do(func() { r.idx = r.Index() })
	v, ok := r.idx[keyString(set, key)]
	return v, ok
}

// Index builds a map from (set, key) to aggregate values.
func (r *Result) Index() map[string][]float64 {
	m := make(map[string][]float64, len(r.Rows))
	for i := range r.Rows {
		m[keyString(r.Rows[i].Set, r.Rows[i].Key)] = r.Rows[i].Aggs
	}
	return m
}

// KeyOf is the exported key renderer matching Index.
func KeyOf(set int, key []string) string { return keyString(set, key) }

// aggSite is one aggregate call discovered in the select list.
type aggSite struct {
	kind AggKind
	arg  scalarFn // nil for COUNT(*)
}

// update folds row r (weight w) into the site's accumulator for one
// group, converting the argument the way the site's kind consumes it.
func (site *aggSite) update(s *Acc, row int, w float64) {
	switch site.kind {
	case AggCount:
		s.Accumulate(1, w)
	case AggCountIf:
		x := 0.0
		if site.arg(row).truthy() {
			x = 1
		}
		s.Accumulate(x, w)
	case AggMin, AggMax:
		s.Observe(site.arg(row).asNum())
	default: // AVG, SUM, VAR, STDDEV
		s.Accumulate(site.arg(row).asNum(), w)
	}
}

// compiledQuery is a query bound to a table.
type compiledQuery struct {
	*Outputs
	tbl       *table.Table
	where     scalarFn // nil = all rows
	groupCols []*table.Column
	sites     []*aggSite
}

// compile validates and binds a query against a table.
func compile(tbl *table.Table, q *sqlparse.Query) (*compiledQuery, error) {
	c := &compiledQuery{tbl: tbl}
	out, err := CompileOutputs(tbl, q, func(kind AggKind, arg sqlparse.Expr) error {
		site := &aggSite{kind: kind}
		if arg != nil {
			f, err := compileScalar(tbl, arg)
			if err != nil {
				return err
			}
			if kind != AggCount { // COUNT(expr) ignores the arg (no NULLs)
				site.arg = f
			}
		}
		c.sites = append(c.sites, site)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.Outputs = out
	if q.Where != nil {
		f, err := compileScalar(tbl, q.Where)
		if err != nil {
			return nil, err
		}
		c.where = f
	}
	for _, idx := range out.GroupIdx {
		c.groupCols = append(c.groupCols, tbl.Columns[idx])
	}
	return c, nil
}

// Run evaluates q exactly over the full table.
func Run(tbl *table.Table, q *sqlparse.Query) (*Result, error) {
	c, err := compile(tbl, q)
	if err != nil {
		return nil, err
	}
	return c.execute(nil, nil)
}

// RunWeighted evaluates q approximately over a weighted row sample.
func RunWeighted(tbl *table.Table, q *sqlparse.Query, rows []int32, weights []float64) (*Result, error) {
	if len(rows) != len(weights) {
		return nil, fmt.Errorf("exec: %d rows but %d weights", len(rows), len(weights))
	}
	c, err := compile(tbl, q)
	if err != nil {
		return nil, err
	}
	return c.execute(rows, weights)
}

// execute groups and aggregates. rows == nil means the full table with
// unit weights.
func (c *compiledQuery) execute(rows []int32, weights []float64) (*Result, error) {
	res := c.NewResult()
	type groupAcc struct {
		key    []string
		states []Acc
	}
	for setIdx, setPos := range c.Sets {
		groups := map[string]*groupAcc{}
		var order []string
		visit := func(r int, w float64) {
			if c.where != nil && !c.where(r).truthy() {
				return
			}
			keyParts := make([]string, len(setPos))
			for i, p := range setPos {
				keyParts[i] = c.groupCols[p].StringAt(r)
			}
			k := strings.Join(keyParts, "\x00")
			g, ok := groups[k]
			if !ok {
				g = &groupAcc{key: keyParts, states: make([]Acc, len(c.sites))}
				groups[k] = g
				order = append(order, k)
			}
			for si, site := range c.sites {
				site.update(&g.states[si], r, w)
			}
		}
		if rows == nil {
			for r := 0; r < c.tbl.NumRows(); r++ {
				visit(r, 1)
			}
		} else {
			for i, r := range rows {
				visit(int(r), weights[i])
			}
		}
		sort.Strings(order)
		for _, k := range order {
			g := groups[k]
			if row, ok := c.Row(setIdx, g.key, g.states, rows != nil); ok {
				res.Rows = append(res.Rows, row)
			}
		}
	}
	c.Finish(res)
	return res, nil
}
