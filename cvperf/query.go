package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/table"
)

// query is a group-by query in structured form. The benchmark renders
// it to SQL for the server and evaluates it itself (groupBy) for the
// truth, so the answers it checks against never come from the program
// under test.
type query struct {
	GroupBy []string
	Cube    bool
	Aggs    []agg
	Where   []pred // conjunction
}

// agg is one aggregate: SUM/AVG over Col, COUNT(*), or COUNT_IF(Col > Lit).
type agg struct {
	Fn  string // SUM, AVG, COUNT, COUNT_IF
	Col string
	Lit string // COUNT_IF threshold, as written in the SQL
}

// pred is one predicate: Col BETWEEN Lo AND Hi, Col = Lit, or Col > Lit.
// Literals are kept as the SQL text so the truth uses exactly the value
// the server parses.
type pred struct {
	Col string
	Op  string // "between", "=", ">"
	Lo  string
	Hi  string
	Lit string
	Str bool // Lit is a string literal
}

func (a agg) sql() string {
	switch a.Fn {
	case "COUNT":
		return "COUNT(*)"
	case "COUNT_IF":
		return fmt.Sprintf("COUNT_IF(%s > %s)", a.Col, a.Lit)
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Col)
}

func (p pred) sql() string {
	switch p.Op {
	case "between":
		return fmt.Sprintf("%s BETWEEN %s AND %s", p.Col, p.Lo, p.Hi)
	case "=":
		if p.Str {
			return fmt.Sprintf("%s = '%s'", p.Col, p.Lit)
		}
		return fmt.Sprintf("%s = %s", p.Col, p.Lit)
	}
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, p.Lit)
}

// SQL renders the query against the named table.
func (q query) SQL(tableName string) string { return q.aliasedSQL(tableName, "") }

// aliasedSQL renders the query with its first aggregate named alias
// (none when ""): the same query under a different plan-cache key.
func (q query) aliasedSQL(tableName, alias string) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	items := append([]string(nil), q.GroupBy...)
	for i, a := range q.Aggs {
		if i == 0 && alias != "" {
			items = append(items, a.sql()+" AS "+alias)
			continue
		}
		items = append(items, a.sql())
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM ")
	b.WriteString(tableName)
	if len(q.Where) > 0 {
		conds := make([]string, len(q.Where))
		for i, p := range q.Where {
			conds[i] = p.sql()
		}
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(conds, " AND "))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
		if q.Cube {
			b.WriteString(" WITH CUBE")
		}
	}
	return b.String()
}

// answer maps a group (its grouping set and key, see groupKey) to its
// aggregate values in select order.
type answer map[string][]float64

// groupKey identifies one output group independently of how the server
// numbers its grouping sets.
func groupKey(set, key []string) string {
	return strings.Join(set, ",") + "\x00" + strings.Join(key, "\x00")
}

// frame is a dense, integer-coded view of a generated table: every
// column the queries group or filter on gets a code per row, so the
// truth group-by runs as array arithmetic instead of string hashing.
type frame struct {
	tbl    *table.Table
	codes  map[string][]int32  // grouping/equality column -> dense code per row
	labels map[string][]string // code -> rendered value
}

func newFrame(tbl *table.Table) *frame {
	f := &frame{tbl: tbl, codes: map[string][]int32{}, labels: map[string][]string{}}
	for _, c := range tbl.Columns {
		var codes []int32
		var labels []string
		switch c.Spec.Kind {
		case table.String:
			// dictionary codes are already dense
			codes = c.Str
			for r, code := range codes {
				for int(code) >= len(labels) {
					labels = append(labels, "")
				}
				if labels[code] == "" {
					labels[code] = c.StringAt(r)
				}
			}
		case table.Int:
			if len(c.Int) == 0 {
				continue
			}
			lo, hi := slices.Min(c.Int), slices.Max(c.Int)
			codes = make([]int32, len(c.Int))
			for r, v := range c.Int {
				codes[r] = int32(v - lo)
			}
			for v := lo; v <= hi; v++ {
				labels = append(labels, strconv.FormatInt(v, 10))
			}
		default:
			continue
		}
		f.codes[c.Spec.Name] = codes
		f.labels[c.Spec.Name] = labels
	}
	return f
}

// mask marks which of the first n rows pass every predicate, one
// typed pass over the column per predicate.
func (f *frame) mask(where []pred, n int) ([]bool, error) {
	keep := make([]bool, n)
	for r := range keep {
		keep[r] = true
	}
	for _, p := range where {
		col := f.tbl.Column(p.Col)
		if col == nil {
			return nil, fmt.Errorf("unknown column %q", p.Col)
		}
		if p.Op == "=" && p.Str {
			want := int32(-1)
			for id, s := range f.labels[p.Col] {
				if s == p.Lit {
					want = int32(id)
				}
			}
			for r, c := range f.codes[p.Col][:n] {
				keep[r] = keep[r] && c == want
			}
			continue
		}
		var test func(v float64) bool
		switch p.Op {
		case "between":
			lo, err1 := strconv.ParseFloat(p.Lo, 64)
			hi, err2 := strconv.ParseFloat(p.Hi, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad BETWEEN literal in %s", p.sql())
			}
			test = func(v float64) bool { return v >= lo && v <= hi }
		case "=", ">":
			lit, err := strconv.ParseFloat(p.Lit, 64)
			if err != nil {
				return nil, fmt.Errorf("bad literal in %s", p.sql())
			}
			if p.Op == "=" {
				test = func(v float64) bool { return v == lit }
			} else {
				test = func(v float64) bool { return v > lit }
			}
		default:
			return nil, fmt.Errorf("unsupported predicate %s", p.sql())
		}
		switch col.Spec.Kind {
		case table.Int:
			for r, v := range col.Int[:n] {
				keep[r] = keep[r] && test(float64(v))
			}
		case table.Float:
			for r, v := range col.Float[:n] {
				keep[r] = keep[r] && test(v)
			}
		default:
			return nil, fmt.Errorf("cannot compare string column %q with a number", p.Col)
		}
	}
	return keep, nil
}

// groupBy evaluates q exactly over the first n rows of the frame: a
// plain filter-group-aggregate loop, one pass per grouping set.
func (f *frame) groupBy(q query, n int) (answer, error) {
	keep, err := f.mask(q.Where, n)
	if err != nil {
		return nil, err
	}
	type aggCol struct {
		vals    []float64 // nil for COUNT(*)
		countIf bool
		lit     float64
	}
	cols := make([]aggCol, len(q.Aggs))
	for i, a := range q.Aggs {
		if a.Fn == "COUNT" {
			continue
		}
		c := f.tbl.Column(a.Col)
		if c == nil || c.Spec.Kind != table.Float {
			return nil, fmt.Errorf("aggregate column %q must be a float column", a.Col)
		}
		cols[i].vals = c.Float
		if cols[i].countIf = a.Fn == "COUNT_IF"; cols[i].countIf {
			if cols[i].lit, err = strconv.ParseFloat(a.Lit, 64); err != nil {
				return nil, fmt.Errorf("bad COUNT_IF literal %q", a.Lit)
			}
		}
	}
	sets := [][]string{q.GroupBy}
	if q.Cube {
		sets = cubeSets(q.GroupBy)
	}
	out := answer{}
	for _, set := range sets {
		codes := make([][]int32, len(set))
		radix := make([]int, len(set))
		size := 1
		for i, a := range set {
			codes[i] = f.codes[a]
			if codes[i] == nil {
				return nil, fmt.Errorf("cannot group by %q", a)
			}
			radix[i] = len(f.labels[a])
			size *= radix[i]
		}
		count := make([]float64, size)
		acc := make([]float64, size*len(q.Aggs))
		for r, ok := range keep {
			if !ok {
				continue
			}
			g := 0
			for i := range set {
				g = g*radix[i] + int(codes[i][r])
			}
			count[g]++
			for j, c := range cols {
				switch {
				case c.vals == nil:
				case c.countIf:
					if c.vals[r] > c.lit {
						acc[g*len(cols)+j]++
					}
				default:
					acc[g*len(cols)+j] += c.vals[r]
				}
			}
		}
		for g, cnt := range count {
			if cnt == 0 {
				continue
			}
			key := make([]string, len(set))
			rest := g
			for i := len(set) - 1; i >= 0; i-- {
				key[i] = f.labels[set[i]][rest%radix[i]]
				rest /= radix[i]
			}
			vals := make([]float64, len(cols))
			for j := range cols {
				switch q.Aggs[j].Fn {
				case "COUNT":
					vals[j] = cnt
				case "AVG":
					vals[j] = acc[g*len(cols)+j] / cnt
				default:
					vals[j] = acc[g*len(cols)+j]
				}
			}
			out[groupKey(set, key)] = vals
		}
	}
	return out, nil
}

// cubeSets lists every subset of attrs, attribute order preserved.
func cubeSets(attrs []string) [][]string {
	var sets [][]string
	for mask := (1 << len(attrs)) - 1; mask >= 0; mask-- {
		var set []string
		for i, a := range attrs {
			if mask&(1<<i) != 0 {
				set = append(set, a)
			}
		}
		sets = append(sets, set)
	}
	return sets
}
