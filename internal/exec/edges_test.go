package exec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/val"
)

// mergePlan is w.plan(text) with the HashJoin under its HashAgg replaced
// by a merge join of b and p on (k, g) indexes, both sides fetching.
func (w *foldWorld) mergePlan(t testing.TB, text string) *plan.Plan {
	t.Helper()
	p := w.plan(t, text, false, 0)
	agg := *p.Root.(*plan.HashAgg)
	side := func(tab int) plan.MergeSide {
		return plan.MergeSide{Tab: tab, Info: w.infos[tab], Index: mergeIndex(t, w.infos[tab], 1)}
	}
	agg.Input = &plan.MergeJoin{L: side(0), R: side(1)}
	return &plan.Plan{Query: p.Query, Layout: p.Layout, Root: &agg}
}

// result runs p and renders its rows.
func result(t testing.TB, p *plan.Plan) []string {
	t.Helper()
	res, err := Run(p, &Ctx{Model: cost.Desktop2005()})
	if err != nil {
		t.Fatal(err)
	}
	out := []string{}
	for _, r := range res.Rows {
		out = append(out, fmt.Sprint(r))
	}
	return out
}

// TestAggregateWithoutGroupByOverNoRows: an aggregate with no GROUP BY
// over a join that matches nothing returns one row — COUNT 0, the other
// aggregates NULL — through the folded hash join, the enumerating hash
// join, the merge join, and RunPartial + MergePartials over two
// partitions that each match nothing.
func TestAggregateWithoutGroupByOverNoRows(t *testing.T) {
	i := val.Int
	bRows := []val.Row{{i(1), i(0), i(5)}, {i(2), i(0), i(6)}}
	pRows := []val.Row{{i(3), i(0), i(7)}, {i(4), i(0), i(8)}}
	for _, c := range []struct{ text, want string }{
		{`SELECT COUNT(*) FROM b, p WHERE b.k = p.k`, "[0]"},
		{`SELECT COUNT(*), COUNT(DISTINCT b.x) FROM b, p WHERE b.k = p.k`, "[0 0]"},
		{`SELECT COUNT(b.x), SUM(b.x), MIN(b.x), MAX(p.x), AVG(p.x) FROM b, p WHERE b.k = p.k`, "[0 NULL NULL NULL NULL]"},
	} {
		w := newFoldWorld(t, bRows, pRows)
		hp := w.plan(t, c.text, false, 0)
		for name, p := range map[string]*plan.Plan{"hash join": hp, "merge join": w.mergePlan(t, c.text)} {
			if got := result(t, p); len(got) != 1 || got[0] != c.want {
				t.Errorf("%s through the %s: %q, want [%s]", c.text, name, got, c.want)
			}
		}
		var parts []*Partial
		for k := range 2 {
			pw := newFoldWorld(t, bRows[k:k+1], pRows[k:k+1])
			part, err := RunPartial(pw.plan(t, c.text, false, 0), &Ctx{Model: cost.Desktop2005()})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
		res, err := MergePartials(hp, parts, &Ctx{Model: cost.Desktop2005()})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != c.want {
			t.Errorf("%s merged from two partitions: %v, want [%s]", c.text, res.Rows, c.want)
		}
	}
}

// TestNaNJoinKeys: a NaN join key matches only NaN, through the merge
// join (which orders keys by val.Compare) and the hash join (which
// matches them by key identity) alike — b(k = NaN) against p(k = 1)
// joins no row on either.
func TestNaNJoinKeys(t *testing.T) {
	i := val.Int
	nan := val.Float(math.NaN())
	for _, c := range []struct {
		name string
		b, p []val.Row
		want string
	}{
		{"NaN against 1", []val.Row{{nan, i(0), i(0)}}, []val.Row{{i(1), i(0), i(0)}}, "[0]"},
		{"NaN against NaN", []val.Row{{nan, i(0), i(0)}}, []val.Row{{i(1), i(0), i(0)}, {nan, i(0), i(0)}}, "[1]"},
		{"NaN among numbers", []val.Row{{i(0), i(0), i(0)}, {nan, i(0), i(0)}, {i(2), i(0), i(0)}},
			[]val.Row{{nan, i(0), i(0)}, {i(1), i(0), i(0)}, {i(2), i(0), i(0)}, {val.Float(-1), i(0), i(0)}}, "[2]"},
	} {
		w := newFoldWorld(t, c.b, c.p)
		const text = `SELECT COUNT(*) FROM b, p WHERE b.k = p.k`
		for name, p := range map[string]*plan.Plan{"hash join": w.plan(t, text, false, 0), "merge join": w.mergePlan(t, text)} {
			if got := result(t, p); len(got) != 1 || got[0] != c.want {
				t.Errorf("%s through the %s: %q, want [%s]", c.name, name, got, c.want)
			}
		}
	}
	if val.Compare(nan, nan) != 0 || val.Compare(nan, val.Int(1)) >= 0 || val.Compare(val.Float(math.Inf(-1)), nan) <= 0 {
		t.Error("val.Compare must order NaN equal to NaN and below every other number")
	}
}
