package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/val"
)

// foldWorld is two tables of (k, g, x) rows holding values of any kind:
// b, query table 0, and p, query table 1.
type foldWorld struct {
	schema *catalog.Schema
	infos  [2]*plan.TableInfo
}

func newFoldWorld(t testing.TB, bRows, pRows []val.Row) *foldWorld {
	t.Helper()
	w := &foldWorld{schema: catalog.NewSchema("fold")}
	for i, rows := range [][]val.Row{bRows, pRows} {
		tab := catalog.MustTable([]string{"b", "p"}[i], []catalog.Column{
			{Name: "k", Type: catalog.TypeInt, Domain: "k"},
			{Name: "g", Type: catalog.TypeInt},
			{Name: "x", Type: catalog.TypeInt},
		}, nil)
		w.schema.MustAdd(tab)
		h := storage.NewHeap(tab)
		for _, r := range rows {
			if _, err := h.Insert(nil, r); err != nil {
				t.Fatal(err)
			}
		}
		w.infos[i] = &plan.TableInfo{Table: tab, Heap: h}
	}
	return w
}

// plan analyzes text, a query over "b, p WHERE b.k = p.k", and plans it
// as a HashAgg over a HashJoin of the two scans on k: b builds, or p when
// pBuilds. mem is the plan's memory budget (0: nothing spills).
func (w *foldWorld) plan(t testing.TB, text string, pBuilds bool, mem int64) *plan.Plan {
	t.Helper()
	stmt, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(w.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	l := plan.NewLayout(q)
	off := func(c sql.QCol) int { return l.Offset(c) }
	build, probe := 0, 1
	if pBuilds {
		build, probe = 1, 0
	}
	join := &plan.HashJoin{
		Build:      &plan.SeqScan{Tab: build, Info: w.infos[build]},
		Probe:      &plan.SeqScan{Tab: probe, Info: w.infos[probe]},
		BuildKeys:  []int{off(sql.QCol{Tab: build})},
		ProbeKeys:  []int{off(sql.QCol{Tab: probe})},
		BuildWidth: 24,
	}
	agg := &plan.HashAgg{Input: join, GroupWidth: 24}
	for _, g := range q.GroupBy {
		agg.Groups = append(agg.Groups, off(g))
	}
	for _, a := range q.Aggs {
		spec := plan.AggSpec{Kind: a.Kind}
		if a.Kind != sql.AggCountStar {
			spec.Offset = off(a.Col)
		}
		agg.Aggs = append(agg.Aggs, spec)
	}
	return &plan.Plan{Query: q, Layout: l, Root: agg, Mem: mem}
}

// checkFoldSweep is CheckFold at no limit, at fractions of p's cost, just
// under and over its cost without the spill bills, and just under and
// over the last check that tests the limit.
func checkFoldSweep(t testing.TB, name string, p *plan.Plan, m cost.Model) {
	t.Helper()
	full, noSpill := FullSeconds(t, p, m)
	limits := []float64{0, full / 3, full * 2 / 3, noSpill * (1 - 1e-9), noSpill * (1 + 1e-9)}
	CheckFold(t, name, p, m, append(limits, FlipLimits(t, p, m)...)...)
}

// foldQueries are queries over b ⋈ p with every aggregate the fold takes,
// arguments on both sides, and groups on b, on p, on neither, and on both
// (which the fold leaves to the enumerating path).
var foldQueries = []string{
	`SELECT b.g, COUNT(*), COUNT(b.x), COUNT(p.x), COUNT(DISTINCT b.x), COUNT(DISTINCT p.x) FROM b, p WHERE b.k = p.k GROUP BY b.g`,
	`SELECT p.g, COUNT(*), COUNT(b.x), COUNT(p.x), COUNT(DISTINCT b.x), COUNT(DISTINCT p.x) FROM b, p WHERE b.k = p.k GROUP BY p.g`,
	`SELECT b.g, b.x, COUNT(DISTINCT p.x), COUNT(DISTINCT p.g) FROM b, p WHERE b.k = p.k GROUP BY b.g, b.x`,
	`SELECT p.x, COUNT(DISTINCT b.x), COUNT(DISTINCT b.g), COUNT(*) FROM b, p WHERE b.k = p.k GROUP BY p.x`,
	`SELECT COUNT(*), COUNT(DISTINCT b.x), COUNT(DISTINCT p.x) FROM b, p WHERE b.k = p.k`,
	`SELECT b.g, p.g, COUNT(*) FROM b, p WHERE b.k = p.k GROUP BY b.g, p.g`,
}

// TestFoldMatchesEnumeration holds the fold to the enumerating path on
// hand-made tables, with b building and with p building, with and without
// spills. Key 1 has rows in two groups and arguments Int 1, Float 1.0 and
// NULL; key 2 has −0, +0 and two NaNs; key 3 (and NULL, a key like any
// other) meets no probe row; Int 1 and Float 1.0 are two keys. Then each
// table is repeated 20 times, so that chains outgrow the limit's check
// interval and the sweep stops runs inside a chain.
func TestFoldMatchesEnumeration(t *testing.T) {
	i, f, s, null := val.Int, val.Float, val.String, val.Null()
	nan2 := f(math.Float64frombits(0x7ff8000000000001))
	b := []val.Row{
		{i(1), i(10), i(1)}, {i(1), i(20), f(1)}, {i(1), i(10), null}, {i(1), i(20), i(1)},
		{i(2), i(10), f(math.Copysign(0, -1))}, {i(2), i(30), f(0)}, {i(2), i(30), f(math.NaN())}, {i(2), i(10), nan2},
		{i(3), i(40), i(7)}, {null, i(50), i(8)}, {f(1), i(60), s("a")}, {f(1), i(60), s("")},
	}
	p := []val.Row{
		{i(1), i(100), i(1)}, {i(2), i(100), f(1)}, {i(1), i(200), null}, {i(4), i(100), i(9)},
		{f(1), i(200), s("a")}, {i(2), i(300), f(math.Copysign(0, -1))}, {i(1), i(100), f(math.NaN())},
		{i(2), i(200), nan2}, {f(2), i(300), i(1)}, {i(1), null, f(0)},
	}
	m := cost.Desktop2005()
	for _, reps := range []int{1, 20} {
		w := newFoldWorld(t, repeat(b, reps), repeat(p, reps))
		for _, q := range foldQueries {
			for _, pBuilds := range []bool{false, true} {
				for _, mem := range []int64{0, 1} {
					checkFoldSweep(t, fmt.Sprintf("%s (×%d, p builds %v, mem %d)", q, reps, pBuilds, mem), w.plan(t, q, pBuilds, mem), m)
				}
			}
		}
	}
}

// repeat returns n copies of rows, one after another.
func repeat(rows []val.Row, n int) []val.Row {
	var out []val.Row
	for range n {
		out = append(out, rows...)
	}
	return out
}

// TestFoldLeavesOtherShapes pins which shapes fold: counts over a keyed
// join with every group column on one side, and nothing else.
func TestFoldLeavesOtherShapes(t *testing.T) {
	w := newFoldWorld(t, nil, nil)
	for _, c := range []struct {
		sql     string
		folds   bool
		onBuild bool
	}{
		{foldQueries[0], true, true},
		{foldQueries[1], true, false},
		{foldQueries[4], true, false},
		{foldQueries[5], false, false},
		{`SELECT b.g, MIN(p.x) FROM b, p WHERE b.k = p.k GROUP BY b.g`, false, false},
		{`SELECT b.g, MAX(b.x), COUNT(*) FROM b, p WHERE b.k = p.k GROUP BY b.g`, false, false},
		{`SELECT b.g, SUM(p.x) FROM b, p WHERE b.k = p.k GROUP BY b.g`, false, false},
		{`SELECT b.g, AVG(p.x) FROM b, p WHERE b.k = p.k GROUP BY b.g`, false, false},
	} {
		p := w.plan(t, c.sql, false, 0)
		e := newExecutor(p, &Ctx{})
		_, onBuild, folds := e.foldable(p.Root.(*plan.HashAgg))
		if folds != c.folds || onBuild != c.onBuild {
			t.Errorf("%s: folds %v with groups on the build side %v, want %v and %v", c.sql, folds, onBuild, c.folds, c.onBuild)
		}
	}
	cross := w.plan(t, foldQueries[0], false, 0)
	j := cross.Root.(*plan.HashAgg).Input.(*plan.HashJoin)
	j.BuildKeys, j.ProbeKeys = nil, nil
	if _, _, folds := newExecutor(cross, &Ctx{}).foldable(cross.Root.(*plan.HashAgg)); folds {
		t.Error("a cross join folds")
	}
}

// foldValue decodes one value: NULL, small ints, the same numbers as
// floats, −0, +0, two NaNs and strings, so that values collide across
// kinds only where the key identity says they are one.
func foldValue(c byte) val.Value {
	switch c % 8 {
	case 0:
		return val.Null()
	case 1, 2, 3:
		return val.Int(int64(c / 8 % 4))
	case 4:
		return val.Float(float64(c / 8 % 4))
	case 5:
		return val.Float([]float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7ff8000000000001)}[c/8%4])
	}
	return val.String([]string{"", "a", "b", "1"}[c/8%4])
}

// foldRows decodes up to 16 (k, g, x) rows, three bytes each. Keys take
// a byte's high bits too, so most rows share a few keys.
func foldRows(data []byte) []val.Row {
	var rows []val.Row
	for len(data) >= 3 && len(rows) < 16 {
		rows = append(rows, val.Row{foldValue(data[0] >> 5), foldValue(data[1]), foldValue(data[2])})
		data = data[3:]
	}
	return rows
}

// FuzzFusedAggregate draws small build and probe tables with skewed keys,
// NULLs and mixed kinds — the probe rows repeated up to 64 times, so that
// chains outgrow the limit's check interval — and a query from
// foldQueries' aggregates with groups on a drawn side, and holds the fold
// to the enumerating path at no limit and at a sweep of limits. `make
// fuzz` runs it.
func FuzzFusedAggregate(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 2, 32, 9, 20, 64, 33, 44}, []byte{0, 5, 6, 32, 12, 13, 96, 7, 0}, uint8(0))
	f.Add(uint16(0x1ff), []byte{0, 1, 2, 0, 9, 20, 0, 33, 44, 0, 4, 5, 0, 29, 13}, []byte{0, 5, 6, 0, 12, 13, 0, 7, 0}, uint8(40))
	f.Add(uint16(0x2a5), []byte("build rows of mixed kinds"), []byte("probe rows, repeated"), uint8(63))
	f.Add(uint16(0x3c3), []byte{1, 2, 3, 1, 4, 5, 1, 6, 7, 9, 8, 9}, []byte{1, 9, 10, 1, 11, 12}, uint8(200))
	f.Add(uint16(0x1fa), []byte("all of these rows share the null key....."), []byte("and so do these probe rows, ×64."), uint8(63))
	aggs := []string{"COUNT(*)", "COUNT(b.x)", "COUNT(p.x)", "COUNT(DISTINCT b.x)", "COUNT(DISTINCT p.x)", "COUNT(DISTINCT b.g)"}
	groups := [][]string{nil, {"b.g"}, {"p.g"}, {"b.g", "b.x"}, {"p.g", "p.x"}, {"b.g", "p.g"}}
	m := cost.Desktop2005()
	f.Fuzz(func(t *testing.T, shape uint16, build, probe []byte, reps uint8) {
		bRows, pRows := foldRows(build), foldRows(probe)
		pRows = repeat(pRows, 1+int(reps%64))
		sel := append([]string(nil), groups[int(shape%6)]...)
		group := strings.Join(sel, ", ")
		for i, a := range aggs {
			if shape>>(3+i)&1 == 1 {
				sel = append(sel, a)
			}
		}
		if len(sel) == 0 {
			sel = []string{"COUNT(*)"}
		}
		text := "SELECT " + strings.Join(sel, ", ") + " FROM b, p WHERE b.k = p.k"
		if group != "" {
			text += " GROUP BY " + group
		}
		w := newFoldWorld(t, bRows, pRows)
		checkFoldSweep(t, text, w.plan(t, text, shape>>9&1 == 1, int64(shape>>10&1)), m)
	})
}
