package exec_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/conf"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/val"
)

// handPlan analyzes text for its Query (tables, output mapping) and lets
// join assemble the operator tree by hand over the query's flat layout;
// the root is the Project or HashAgg the optimizer would put on top.
func (w *world) handPlan(t *testing.T, text string, join func(off func(tab, col int) int) plan.Node) *plan.Plan {
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
	input := join(func(tab, col int) int { return l.Offset(sql.QCol{Tab: tab, Col: col}) })
	var root plan.Node
	if len(q.GroupBy) == 0 && len(q.Aggs) == 0 {
		offsets := make([]int, len(q.Out))
		for i, o := range q.Out {
			offsets[i] = l.Offset(o.Col)
		}
		root = &plan.Project{Input: input, Offsets: offsets}
	} else {
		agg := &plan.HashAgg{Input: input}
		for _, g := range q.GroupBy {
			agg.Groups = append(agg.Groups, l.Offset(g))
		}
		for _, a := range q.Aggs {
			spec := plan.AggSpec{Kind: a.Kind}
			if a.Kind != sql.AggCountStar {
				spec.Offset = l.Offset(a.Col)
			}
			agg.Aggs = append(agg.Aggs, spec)
		}
		root = agg
	}
	return &plan.Plan{Query: q, Layout: l, Root: root}
}

func (w *world) seqScan(tab int, name string, filters ...plan.Filter) *plan.SeqScan {
	return &plan.SeqScan{Tab: tab, Info: w.phys.Tables[name], Filters: filters}
}

// indexJoinT joins outer to t (query ordinal tab) through the index on
// t.k, binding the key to the outer row's flat offset outerOff.
func (w *world) indexJoinT(outer plan.Node, tab, outerOff int) *plan.IndexJoin {
	return &plan.IndexJoin{
		Outer: outer, Tab: tab, Info: w.phys.Tables["t"], Index: w.phys.Indexes["t"][0],
		Binds: []plan.KeyBind{{OuterOffset: outerOff}},
	}
}

// rowStrings renders rows one per line and sorts them: the multiset.
func rowStrings(rows []val.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func checkMultiset(t *testing.T, name string, got []val.Row, want []val.Row) {
	t.Helper()
	g, w := rowStrings(got), rowStrings(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d rows, want %d", name, len(g), len(w))
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: row %d of the sorted output is %s, want %s", name, i, g[i], w[i])
			return
		}
	}
}

// TestBorrowedRowsAreClonedByRetainers pins the executor's row-lifetime
// rule — a row handed to an out callback is valid only until the callback
// returns — on plans where a retainer that forgot to Clone would see every
// kept row turn into the last one: a hash-join build side and an
// index-join outer of 300 rows each, and a join feeding a join on both
// the build and the probe side. u row i is (i%50, i); t row k is
// (k, k%10, …), so t.k = u.k matches each u row exactly once.
func TestBorrowedRowsAreClonedByRetainers(t *testing.T) {
	w := newWorld(t, conf.IndexDef{Table: "t", Columns: []string{"k"}})
	const (
		tK, tG = 0, 1 // columns of t
		uK, uV = 0, 1 // columns of u
	)

	var two []val.Row
	for i := int64(0); i < 300; i++ {
		two = append(two, val.Row{val.Int(i % 50), val.Int(i % 50 % 10), val.Int(i)})
	}
	const twoSQL = `SELECT t.k, t.g, u.v FROM t, u WHERE t.k = u.k`
	hash := w.handPlan(t, twoSQL, func(off func(int, int) int) plan.Node {
		return &plan.HashJoin{
			Build: w.seqScan(1, "u"), Probe: w.seqScan(0, "t"),
			BuildKeys: []int{off(1, uK)}, ProbeKeys: []int{off(0, tK)},
		}
	})
	index := w.handPlan(t, twoSQL, func(off func(int, int) int) plan.Node {
		return w.indexJoinT(w.seqScan(1, "u"), 0, off(1, uK))
	})

	// (a ⋈hash b) is the build side and (c ⋈index d) the probe side of a
	// hash join on b.v = c.v; v is unique, so b row i meets c row i.
	var four []val.Row
	for i := int64(0); i < 300; i++ {
		four = append(four, val.Row{val.Int(i % 50), val.Int(i), val.Int(i), val.Int(i % 50 % 10)})
	}
	nested := w.handPlan(t, `SELECT a.k, b.v, c.v, d.g FROM t a, u b, u c, t d
		WHERE a.k = b.k AND c.k = d.k AND b.v = c.v`, func(off func(int, int) int) plan.Node {
		return &plan.HashJoin{
			Build: &plan.HashJoin{
				Build: w.seqScan(1, "u"), Probe: w.seqScan(0, "t"),
				BuildKeys: []int{off(1, uK)}, ProbeKeys: []int{off(0, tK)},
			},
			Probe:     w.indexJoinT(w.seqScan(2, "u"), 3, off(2, uK)),
			BuildKeys: []int{off(1, uV)}, ProbeKeys: []int{off(2, uV)},
		}
	})

	for _, c := range []struct {
		name string
		p    *plan.Plan
		want []val.Row
	}{{"hash join", hash, two}, {"index join", index, two}, {"join of joins", nested, four}} {
		res, err := exec.Run(c.p, &exec.Ctx{Model: w.phys.Model})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkMultiset(t, c.name, res.Rows, c.want)
		part, err := exec.RunPartial(c.p, &exec.Ctx{Model: w.phys.Model})
		if err != nil {
			t.Fatalf("%s partial: %v", c.name, err)
		}
		res, err = exec.MergePartials(c.p, []*exec.Partial{part}, &exec.Ctx{Model: w.phys.Model})
		if err != nil {
			t.Fatalf("%s merge: %v", c.name, err)
		}
		checkMultiset(t, c.name+" (partial)", res.Rows, c.want)
	}
}

// TestHashJoinKeepsEveryColumnReadAbove pins the read set a hash join
// keeps and copies: in each plan a column of a lower hash join's input is
// read by exactly one operator above that join — an aggregate's group or
// argument, an upper hash join's build or probe key, an index join's bind
// or residual equality, a projection, or a root that returns whole flat
// rows — and the rows must be the ones a join that kept every column
// returns. u row j is (j%50, j) and t row k is (k, k%10, 'a'+k%5), so
// a.k = b.k pairs u row j with t row j%50, and v is unique.
func TestHashJoinKeepsEveryColumnReadAbove(t *testing.T) {
	w := newWorld(t, conf.IndexDef{Table: "t", Columns: []string{"k"}})
	const (
		tK, tG = 0, 1 // columns of t
		uK, uV = 0, 1 // columns of u
	)
	letter := func(k int64) val.Value { return val.String(string(rune('a' + k%5))) }
	rows := func(f func(j int64) val.Row) []val.Row {
		var out []val.Row
		for j := int64(0); j < 300; j++ {
			out = append(out, f(j))
		}
		return out
	}
	// lower is u b (build) ⋈ t a (probe) on b.k = a.k, or with the sides
	// swapped; a is query table 0 and b table 1 throughout.
	lower := func(off func(int, int) int, uBuilds bool) *plan.HashJoin {
		if uBuilds {
			return &plan.HashJoin{Build: w.seqScan(1, "u"), Probe: w.seqScan(0, "t"),
				BuildKeys: []int{off(1, uK)}, ProbeKeys: []int{off(0, tK)}}
		}
		return &plan.HashJoin{Build: w.seqScan(0, "t"), Probe: w.seqScan(1, "u"),
			BuildKeys: []int{off(0, tK)}, ProbeKeys: []int{off(1, uK)}}
	}

	// Each g meets k ∈ {g, g+10, …, g+40}, each k six times, and one letter.
	agg := w.handPlan(t, `SELECT a.g, COUNT(*), COUNT(DISTINCT a.s) FROM t a, u b WHERE a.k = b.k GROUP BY a.g`,
		func(off func(int, int) int) plan.Node { return lower(off, false) })
	var aggWant []val.Row
	for g := int64(0); g < 10; g++ {
		aggWant = append(aggWant, val.Row{val.Int(g), val.Int(30), val.Int(1)})
	}

	const threeSQL = `SELECT a.g, c.k FROM t a, u b, u c WHERE a.k = b.k AND b.v = c.v`
	threeWant := rows(func(j int64) val.Row { return val.Row{val.Int(j % 10), val.Int(j % 50)} })
	upperBuild := w.handPlan(t, threeSQL, func(off func(int, int) int) plan.Node {
		return &plan.HashJoin{Build: lower(off, true), Probe: w.seqScan(2, "u"),
			BuildKeys: []int{off(1, uV)}, ProbeKeys: []int{off(2, uV)}}
	})
	upperProbe := w.handPlan(t, threeSQL, func(off func(int, int) int) plan.Node {
		return &plan.HashJoin{Build: w.seqScan(2, "u"), Probe: lower(off, true),
			BuildKeys: []int{off(2, uV)}, ProbeKeys: []int{off(1, uV)}}
	})

	bind := w.handPlan(t, `SELECT a.g, d.g FROM t a, u b, t d WHERE a.k = b.k AND b.v = d.k`,
		func(off func(int, int) int) plan.Node { return w.indexJoinT(lower(off, true), 2, off(1, uV)) })
	bindWant := rows(func(j int64) val.Row { return val.Row{val.Int(j % 10), val.Int(j % 10)} })

	// a.g = d.g always holds (d.g = j%10 = a.g), so only a dropped a.g
	// can make the residual equality reject a row.
	postEq := w.handPlan(t, `SELECT a.k, d.k FROM t a, u b, t d WHERE a.k = b.k AND b.v = d.k AND a.g = d.g`,
		func(off func(int, int) int) plan.Node {
			ij := w.indexJoinT(lower(off, false), 2, off(1, uV))
			ij.PostEq = []plan.EqPair{{A: off(0, tG), B: off(2, tG)}}
			return ij
		})
	postEqWant := rows(func(j int64) val.Row { return val.Row{val.Int(j % 50), val.Int(j)} })

	const twoSQL = `SELECT a.s, b.v FROM t a, u b WHERE a.k = b.k`
	project := w.handPlan(t, twoSQL, func(off func(int, int) int) plan.Node { return lower(off, true) })
	projectWant := rows(func(j int64) val.Row { return val.Row{letter(j % 50), val.Int(j)} })

	flat := w.handPlan(t, twoSQL, func(off func(int, int) int) plan.Node { return lower(off, true) })
	flat.Root = flat.Root.(*plan.Project).Input
	flatWant := rows(func(j int64) val.Row {
		k := j % 50
		return val.Row{val.Int(k), val.Int(k % 10), letter(k), val.Int(k), val.Int(j)}
	})

	for _, c := range []struct {
		name string
		p    *plan.Plan
		want []val.Row
	}{
		{"group and aggregate", agg, aggWant},
		{"upper build key", upperBuild, threeWant},
		{"upper probe key", upperProbe, threeWant},
		{"index-join bind", bind, bindWant},
		{"index-join residual equality", postEq, postEqWant},
		{"projection", project, projectWant},
		{"flat-row root", flat, flatWant},
	} {
		res, err := exec.Run(c.p, &exec.Ctx{Model: w.phys.Model})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkMultiset(t, c.name, res.Rows, c.want)
	}
}

// TestAllocationsDoNotGrowWithRowsLookedAt is the executor's allocation
// budget: what Run allocates is a function of what it keeps (build rows,
// groups, result rows), not of the tuples it looks at. Each plan runs
// over t with 2000 and with 8000 rows; build side, groups and result are
// the same at both sizes, so the allocation counts must be too. The two
// folded joins hold the fold to it: it keeps per-key and per-(group,
// key) state, never per joined row.
func TestAllocationsDoNotGrowWithRowsLookedAt(t *testing.T) {
	const (
		slack      = 8  // today the two sizes allocate exactly the same (136, 54, 82, 181, 163, 406); room for runtime noise, not for rows
		scanBudget = 16 // executor, scratch rows, result: 5 today
	)
	allocs := func(tRows int, text string, join func(w *world, off func(int, int) int) plan.Node) float64 {
		w := newWorldRows(t, tRows)
		p := w.handPlan(t, text, func(off func(int, int) int) plan.Node { return join(w, off) })
		return testing.AllocsPerRun(5, func() {
			if _, err := exec.Run(p, &exec.Ctx{Model: w.phys.Model}); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Every t row probes 6 build rows (u.k = t.g) into one of 10 groups.
	joinAgg := func(w *world, off func(int, int) int) plan.Node {
		return &plan.HashJoin{
			Build: w.seqScan(1, "u"), Probe: w.seqScan(0, "t"),
			BuildKeys: []int{off(1, 0)}, ProbeKeys: []int{off(0, 1)},
		}
	}
	scanT := func(w *world, off func(int, int) int) plan.Node { return w.seqScan(0, "t") }
	// The build side is u a ⋈ u b, four columns wide; every t row again
	// probes 6 of its rows.
	wideBuild := func(w *world, off func(int, int) int) plan.Node {
		return &plan.HashJoin{
			Build: &plan.HashJoin{
				Build: w.seqScan(1, "u"), Probe: w.seqScan(2, "u"),
				BuildKeys: []int{off(1, 1)}, ProbeKeys: []int{off(2, 1)},
			},
			Probe:     w.seqScan(0, "t"),
			BuildKeys: []int{off(1, 0)}, ProbeKeys: []int{off(0, 1)},
		}
	}
	for _, c := range []struct {
		name, sql string
		join      func(w *world, off func(int, int) int) plan.Node
	}{
		{"hash join → hash agg", `SELECT t.g, COUNT(*), COUNT(DISTINCT t.s), MIN(u.v) FROM t, u WHERE t.g = u.k GROUP BY t.g`, joinAgg},
		{"COUNT(DISTINCT) over an int column", `SELECT s, COUNT(DISTINCT g) FROM t GROUP BY s`, scanT},
		{"COUNT(DISTINCT) over a string column", `SELECT g, COUNT(DISTINCT s) FROM t GROUP BY g`, scanT},
		{"hash join with a wide build side", `SELECT t.g, COUNT(*), MIN(b.v) FROM t, u a, u b WHERE t.g = a.k AND a.v = b.v GROUP BY t.g`, wideBuild},
		// Folded (DESIGN §6c): joined rows grow 4×, but the (group, key)
		// pairs are the same 10 and 60 at both sizes.
		{"folded join, groups on the probe side", `SELECT t.g, COUNT(*), COUNT(DISTINCT t.s), COUNT(DISTINCT u.v) FROM t, u WHERE t.g = u.k GROUP BY t.g`, joinAgg},
		{"folded join, groups on the build side", `SELECT u.v, COUNT(*), COUNT(DISTINCT t.s) FROM t, u WHERE t.g = u.k GROUP BY u.v`, joinAgg},
	} {
		small, large := allocs(2000, c.sql, c.join), allocs(8000, c.sql, c.join)
		if large > small+slack {
			t.Errorf("%s: %.0f allocations at 2000 rows of t, %.0f at 8000 — they grow with the tuples looked at", c.name, small, large)
		}
	}

	rejectAll := func(w *world, off func(int, int) int) plan.Node {
		return w.seqScan(0, "t", plan.Filter{Offset: off(0, 0), Op: "<", Value: val.Int(0)})
	}
	small, large := allocs(2000, `SELECT k FROM t WHERE k < 0`, rejectAll), allocs(8000, `SELECT k FROM t WHERE k < 0`, rejectAll)
	if large > small || small > scanBudget {
		t.Errorf("filtered scan that rejects every row: %.0f allocations over 2000 rows, %.0f over 8000 — want O(1)", small, large)
	}
}
