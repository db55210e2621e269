// Package plan lowers parsed queries (internal/sqlparse) to compiled
// physical plans executed columnar-style: predicate → group → aggregate
// operators evaluated in tight typed per-column loops over vectorized
// row batches, with no per-cell boxing. It is the serving layer's only
// executor. The row interpreter (internal/exec) stays as the reference
// oracle: Compile accepts every query exec accepts, and a plan's
// Execute produces bit-identical results (values, group keys,
// ordering, standard-error estimates) to exec.Run/exec.RunWeighted, a
// property enforced by the package's differential tests. Both
// executors fold observations through the one accumulator, exec.Acc.
//
// Plans are immutable after Compile and safe for concurrent Execute
// calls: all mutable evaluation state (batch buffers, scratch vectors,
// per-dictionary-code predicate tables, per-batch memos of shared
// nodes) lives in a per-call context.
// Compiling costs microseconds, so the registry (internal/serve)
// compiles every query against the table or snapshot it runs on and
// caches nothing.
package plan

import (
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// planSite is one aggregate call site: the kind plus the compiled
// argument in the representation its accumulator consumes.
type planSite struct {
	kind    exec.AggKind
	argNum  numOp  // AVG/SUM/MIN/MAX/VAR/STDDEV
	argBool boolOp // COUNT_IF
	cifSlot int    // scratch slot for COUNT_IF's 0/1 vector, else -1
}

// Plan is a query compiled against a table schema. It binds columns by
// index and kind, so it remains valid across streaming snapshots of
// the same table (appends never change the schema); Execute re-checks
// the binding and errors on any mismatch.
type Plan struct {
	tableName string
	schema    []table.Kind // full column-kind fingerprint at compile

	// out is everything after accumulation — grouping sets, output
	// combiners, HAVING, ORDER BY, LIMIT — shared with the interpreter
	out   *exec.Outputs
	where boolOp
	sites []planSite

	slots slotCounts

	// rendered fragments for EXPLAIN
	cube      bool
	whereStr  string
	havingStr string
	orderStrs []string
}

// Compile validates and lowers q against tbl's schema. Validation is
// the interpreter's own (exec.CompileOutputs) plus the same scalar
// checks, so Compile fails exactly when exec.Run would.
func Compile(tbl *table.Table, q *sqlparse.Query) (*Plan, error) {
	p := &Plan{tableName: tbl.Name, cube: q.Cube}
	p.schema = make([]table.Kind, len(tbl.Columns))
	for i, col := range tbl.Columns {
		p.schema[i] = col.Spec.Kind
	}
	c := &compiler{tbl: tbl}
	out, err := exec.CompileOutputs(tbl, q, func(kind exec.AggKind, arg sqlparse.Expr) error {
		site := planSite{kind: kind, cifSlot: -1}
		if arg != nil {
			switch kind {
			case exec.AggCount:
				// COUNT(expr) validates but ignores its argument (no NULLs)
				if _, err := c.compile(arg); err != nil {
					return err
				}
			case exec.AggCountIf:
				f, err := c.compileBool(arg)
				if err != nil {
					return err
				}
				site.argBool = f
				site.cifSlot = c.numSlot()
			default:
				x, err := c.compile(arg)
				if err != nil {
					return err
				}
				site.argNum = c.asNumOp(x)
			}
		}
		p.sites = append(p.sites, site)
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.out = out
	if q.Where != nil {
		f, err := c.compileBool(q.Where)
		if err != nil {
			return nil, err
		}
		p.where = f
		p.whereStr = q.Where.String()
	}
	if q.Having != nil {
		p.havingStr = q.Having.String()
	}
	for _, item := range q.OrderBy {
		s := item.Expr.String()
		if item.Desc {
			s += " DESC"
		}
		p.orderStrs = append(p.orderStrs, s)
	}
	p.slots = c.slotCounts
	return p, nil
}
