package exec

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/sqlparse"
)

// orderSpec is one resolved ORDER BY key.
type orderSpec struct {
	aggIdx int    // >= 0: sort by Aggs[aggIdx]
	attr   string // when aggIdx < 0: sort by this group attribute
	desc   bool
}

// resolveOrderBy matches ORDER BY items against the query's outputs: a
// plain column must be a group-by attribute; anything else must match a
// select item by alias or by rendered expression.
func resolveOrderBy(q *sqlparse.Query) ([]orderSpec, error) {
	var specs []orderSpec
	for _, item := range q.OrderBy {
		spec := orderSpec{aggIdx: -1, desc: item.Desc}
		if ref, ok := item.Expr.(*sqlparse.ColumnRef); ok {
			matched := false
			for _, g := range q.GroupBy {
				if g == ref.Name {
					spec.attr = g
					matched = true
					break
				}
			}
			if !matched {
				// an alias of an aggregate select item?
				for i, sel := range q.Select {
					if sel.Alias == ref.Name && sqlparse.HasAggregate(sel.Expr) {
						spec.aggIdx = aggIndexOf(q, i)
						matched = spec.aggIdx >= 0
						break
					}
				}
			}
			if !matched {
				return nil, fmt.Errorf("exec: ORDER BY %q matches no group-by column or output alias", ref.Name)
			}
		} else {
			rendered := item.Expr.String()
			found := -1
			for i, sel := range q.Select {
				if sqlparse.HasAggregate(sel.Expr) && sel.Expr.String() == rendered {
					found = aggIndexOf(q, i)
					break
				}
			}
			if found < 0 {
				return nil, fmt.Errorf("exec: ORDER BY expression %q does not match any output", rendered)
			}
			spec.aggIdx = found
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// aggIndexOf converts a select-item index into its position among the
// aggregate outputs (plain grouped columns are not output aggregates).
func aggIndexOf(q *sqlparse.Query, selIdx int) int {
	agg := 0
	for i, sel := range q.Select {
		if _, ok := sel.Expr.(*sqlparse.ColumnRef); ok {
			continue
		}
		if i == selIdx {
			return agg
		}
		agg++
	}
	return -1
}

// applyOrderAndLimit sorts result rows by the resolved keys (stable,
// ties broken by grouping set then key) and truncates to the limit.
func applyOrderAndLimit(res *Result, specs []orderSpec, limit int) {
	if len(specs) > 0 {
		attrPos := make([]map[string]int, len(res.Sets))
		for si, set := range res.Sets {
			attrPos[si] = make(map[string]int, len(set))
			for i, a := range set {
				attrPos[si][a] = i
			}
		}
		keyOf := func(r *Row, s orderSpec) (num float64, str string, isNum bool) {
			if s.aggIdx >= 0 {
				return r.Aggs[s.aggIdx], "", true
			}
			pos, ok := attrPos[r.Set][s.attr]
			if !ok {
				return 0, "", false // attribute collapsed in this grouping set
			}
			v := r.Key[pos]
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f, "", true
			}
			return 0, v, false
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			a, b := &res.Rows[i], &res.Rows[j]
			for _, s := range specs {
				an, as, aNum := keyOf(a, s)
				bn, bs, bNum := keyOf(b, s)
				var less, eq bool
				switch {
				case aNum && bNum:
					// NaNs sort last regardless of direction
					switch {
					case math.IsNaN(an) && math.IsNaN(bn):
						eq = true
					case math.IsNaN(an):
						return false
					case math.IsNaN(bn):
						return true
					default:
						less, eq = an < bn, an == bn
					}
				case !aNum && !bNum:
					less, eq = as < bs, as == bs
				default:
					// numeric values sort before strings
					less, eq = aNum, false
				}
				if eq {
					continue
				}
				if s.desc {
					return !less
				}
				return less
			}
			return false
		})
	}
	if limit > 0 && len(res.Rows) > limit {
		res.Rows = res.Rows[:limit]
	}
}
