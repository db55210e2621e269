package plan

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// TestLoweringStaysLinear pins that lowering IFs whose kind varies by
// row costs scratch storage linear in the query, not in the product of
// its operands: the comparison of two nested IF chains, a nested IF
// IN a long list, and IF chains nested in their own conditions. The
// last shape and nested BETWEEN also pin evaluation: a node several
// consumers read must be evaluated once per batch, not once per
// reader, or the work doubles with every level. Doubling the depth
// must at most double the slot count, and every shape must still
// match the interpreter.
func TestLoweringStaysLinear(t *testing.T) {
	tbl := table.New("t", table.Schema{
		{Name: "cat", Kind: table.String},
		{Name: "v", Kind: table.Float},
	})
	for i, cat := range []string{"a", "b", "a", "c", "b", "a"} {
		if err := tbl.AppendRow(cat, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(d int) string {
		s := "cat"
		for i := 0; i < d; i++ {
			s = fmt.Sprintf("IF(v > %d, %s, 'a')", i%5, s)
		}
		return s
	}
	list := func(d int) string {
		items := make([]string, d)
		for i := range items {
			if i%2 == 0 {
				items[i] = fmt.Sprintf("'%c'", 'a'+i%4)
			} else {
				items[i] = fmt.Sprint(i % 5)
			}
		}
		return strings.Join(items, ", ")
	}
	condChain := func(d int) string {
		s := "cat"
		for i := 0; i < d; i++ {
			s = fmt.Sprintf("IF(%s = 'a', v, 'a')", s)
		}
		return s
	}
	between := func(d int) string {
		s := "v"
		for i := 0; i < d; i++ {
			s = "(" + s + " BETWEEN 0 AND 1)"
		}
		return s
	}
	shapes := map[string]func(d int) string{
		"if-vs-if":   func(d int) string { return "SELECT COUNT_IF(" + chain(d) + " = " + chain(d) + ") FROM t" },
		"if-in-list": func(d int) string { return "SELECT COUNT_IF(" + chain(d) + " IN (" + list(d) + ")) FROM t" },
		"if-in-cond": func(d int) string { return "SELECT COUNT_IF(" + condChain(d) + " != 1) FROM t" },
		"between":    func(d int) string { return "SELECT COUNT_IF(" + between(d) + ") FROM t" },
	}
	total := func(sc slotCounts) int { return sc.nums + sc.bools + sc.strs + sc.tabs + sc.memos }
	for name, shape := range shapes {
		var slots [2]int
		for i, d := range []int{200, 400} {
			q, err := sqlparse.Parse(shape(d))
			if err != nil {
				t.Fatalf("%s: parse: %v", name, err)
			}
			p, err := Compile(tbl, q)
			if err != nil {
				t.Fatalf("%s: compile: %v", name, err)
			}
			slots[i] = total(p.slots)
			want, err := exec.Run(tbl, q)
			if err != nil {
				t.Fatalf("%s: interpret: %v", name, err)
			}
			got, err := p.Execute(tbl, nil, nil)
			if err != nil {
				t.Fatalf("%s: execute: %v", name, err)
			}
			if w, g := want.Rows[0].Aggs[0], got.Rows[0].Aggs[0]; w != g {
				t.Errorf("%s depth %d: planned %v, interpreted %v", name, d, g, w)
			}
		}
		if slots[1] > 2*slots[0] {
			t.Errorf("%s: %d slots at depth 200, %d at depth 400; want at most double", name, slots[0], slots[1])
		}
		if perLevel := slots[1] / 400; perLevel > 32 {
			t.Errorf("%s: %d slots per nesting level, want at most 32", name, perLevel)
		}
	}
}
