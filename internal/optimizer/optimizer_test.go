package optimizer

import (
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// fixture builds a two-table physical design:
//
//	big(a BIGINT unique-ish, b BIGINT 100 distinct, c VARCHAR 26 distinct)  20k rows
//	small(x BIGINT joins big.b, y BIGINT)                                    500 rows
type fixture struct {
	schema *catalog.Schema
	phys   *plan.Physical
}

func buildIndex(h *storage.Heap, d conf.IndexDef) *plan.IndexInfo {
	cols := make([]int, len(d.Columns))
	for i, c := range d.Columns {
		cols[i] = h.Table.ColumnIndex(c)
	}
	tree := btree.New(false)
	h.Scan(nil, func(id storage.RowID, r val.Row) bool {
		if err := tree.Insert(r.Project(cols), int64(id)); err != nil {
			panic(err)
		}
		return true
	})
	// Measure exact prefix NDVs by an ordered walk.
	ndv := make([]int64, len(cols))
	var prev val.Row
	it := tree.Scan()
	for {
		k, _, ok := it.Next()
		if !ok {
			break
		}
		changed := prev == nil
		for i := range cols {
			if !changed && val.Compare(prev[i], k[i]) != 0 {
				changed = true
			}
			if changed {
				ndv[i]++
			}
		}
		prev = append(prev[:0], k...)
	}
	sh := tree.Shape()
	return &plan.IndexInfo{
		Def: d, Name: d.Name(), Cols: cols, Tree: tree,
		KeyNDV:         ndv,
		Height:         tree.Height(),
		LeafPages:      sh.LeafPages,
		EntriesPerLeaf: sh.EntriesPerLeaf,
		Bytes:          sh.Bytes,
	}
}

func newFixture(t testing.TB, indexes ...conf.IndexDef) *fixture {
	t.Helper()
	schema := catalog.NewSchema("fx")
	big := catalog.MustTable("big", []catalog.Column{
		{Name: "a", Type: catalog.TypeInt, Indexable: true},
		{Name: "b", Type: catalog.TypeInt, Domain: "d", Indexable: true},
		{Name: "c", Type: catalog.TypeString, Indexable: true, AvgWidth: 6},
		// A wide payload makes the heap much larger than any index, so
		// covering plans have something to win (like NREF's sequence
		// column).
		{Name: "payload", Type: catalog.TypeString, AvgWidth: 220},
	}, []string{"a"})
	small := catalog.MustTable("small", []catalog.Column{
		{Name: "x", Type: catalog.TypeInt, Domain: "d", Indexable: true},
		{Name: "y", Type: catalog.TypeInt, Indexable: true},
	}, nil)
	schema.MustAdd(big)
	schema.MustAdd(small)

	hb := storage.NewHeap(big)
	for i := 0; i < 20000; i++ {
		_, err := hb.Insert(nil, val.Row{
			val.Int(int64(i)),
			val.Int(int64(i % 100)),
			val.String(string(rune('a' + i%26))),
			val.String("payload"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Rare b values 100..119 (frequency 2): material for selective
	// HAVING COUNT(*) < k subqueries.
	for i := 0; i < 40; i++ {
		_, err := hb.Insert(nil, val.Row{
			val.Int(int64(20000 + i)),
			val.Int(int64(100 + i/2)),
			val.String("rare"),
			val.String("payload"),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hs := storage.NewHeap(small)
	for i := 0; i < 500; i++ {
		_, err := hs.Insert(nil, val.Row{val.Int(int64(i % 100)), val.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Rare x values 100..109 (frequency 1).
	for i := 0; i < 10; i++ {
		_, err := hs.Insert(nil, val.Row{val.Int(int64(100 + i)), val.Int(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
	}

	phys := &plan.Physical{
		Schema: schema,
		Tables: map[string]*plan.TableInfo{
			"big":   {Table: big, Heap: hb, Stats: stats.Collect(hb)},
			"small": {Table: small, Heap: hs, Stats: stats.Collect(hs)},
		},
		Indexes: make(map[string][]*plan.IndexInfo),
		Mem:     256 << 20,
		Model:   cost.Desktop2005().WithScale(1000),
	}
	for _, d := range indexes {
		key := strings.ToLower(d.Table)
		h := phys.Tables[key].Heap
		phys.Indexes[key] = append(phys.Indexes[key], buildIndex(h, d))
	}
	return &fixture{schema: schema, phys: phys}
}

func (f *fixture) optimize(t *testing.T, text string, opts Options) *plan.Plan {
	t.Helper()
	stmt, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(f.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(f.phys, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSelectiveEqUsesIndex(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"a"}})
	p := f.optimize(t, "SELECT a, c FROM big WHERE a = 7", Options{})
	if _, ok := p.Root.(*plan.Project); !ok {
		t.Fatalf("root = %T", p.Root)
	}
	scan, ok := p.Root.(*plan.Project).Input.(*plan.IndexScan)
	if !ok {
		t.Fatalf("expected IndexScan, got %s", p.Explain())
	}
	if len(scan.EqVals) != 1 || scan.EqVals[0].I != 7 {
		t.Errorf("eq prefix = %v", scan.EqVals)
	}
}

func TestUnselectiveEqPrefersScan(t *testing.T) {
	// b = 5 matches 1% of a 20k-row narrow table: with rid-sort available
	// the optimizer may pick either; what matters is it never picks a
	// per-row random-fetch plan costing more than the scan.
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"b"}})
	p := f.optimize(t, "SELECT b, COUNT(*) FROM big WHERE b = 5 GROUP BY b", Options{})
	seqAlt := f.optimize(t, "SELECT b, COUNT(*) FROM big WHERE b = 5 GROUP BY b", Options{NoIndexOnly: true})
	if p.Est.Seconds > seqAlt.Est.Seconds*1.01 {
		t.Errorf("chosen plan (%.2fs) worse than alternative (%.2fs)", p.Est.Seconds, seqAlt.Est.Seconds)
	}
}

func TestCoveringIndexOnlyScan(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"b", "c"}})
	p := f.optimize(t, "SELECT b, COUNT(DISTINCT c) FROM big GROUP BY b", Options{})
	agg, ok := p.Root.(*plan.HashAgg)
	if !ok {
		t.Fatalf("root = %T", p.Root)
	}
	scan, ok := agg.Input.(*plan.IndexScan)
	if !ok || !scan.Covering {
		t.Fatalf("expected covering index scan:\n%s", p.Explain())
	}
}

func TestNoIndexOnlyOption(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"b", "c"}})
	p := f.optimize(t, "SELECT b, COUNT(DISTINCT c) FROM big GROUP BY b", Options{NoIndexOnly: true})
	if _, ok := p.Root.(*plan.HashAgg).Input.(*plan.SeqScan); !ok {
		t.Fatalf("NoIndexOnly should force a scan:\n%s", p.Explain())
	}
}

func TestIndexJoinForSelectiveOuter(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"b"}})
	// small filtered to one row, then joined into big.b: expect an index
	// join (or at least a plan far cheaper than scanning big).
	p := f.optimize(t, `SELECT s.y, COUNT(*) FROM small s, big g
		WHERE s.x = g.b AND s.y = 3 GROUP BY s.y`, Options{})
	foundIndexJoin := false
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch n := n.(type) {
		case *plan.IndexJoin:
			foundIndexJoin = true
		case *plan.HashJoin:
			walk(n.Build)
			walk(n.Probe)
		case *plan.HashAgg:
			walk(n.Input)
		case *plan.Project:
			walk(n.Input)
		}
	}
	walk(p.Root)
	if !foundIndexJoin {
		t.Logf("no index join chosen; plan:\n%s", p.Explain())
		// Acceptable only if cheaper than the scan-based plan.
		noIx := f.optimize(t, `SELECT s.y, COUNT(*) FROM small s, big g
			WHERE s.x = g.b AND s.y = 3 GROUP BY s.y`, Options{NoIndexOnly: true})
		if p.Est.Seconds > noIx.Est.Seconds {
			t.Error("chosen plan worse than scan plan")
		}
	}
}

// TestMergeJoinForCoOccurrence reproduces the NREF2J plan shape: both
// join columns restricted to infrequent values and indexed, group-by on a
// non-indexed column. The merge join applies the IN sets at the key level
// and fetches only the handful of surviving rows — far cheaper than
// scanning the wide heap.
func TestMergeJoinForCoOccurrence(t *testing.T) {
	f := newFixture(t,
		conf.IndexDef{Table: "big", Columns: []string{"b"}},
		conf.IndexDef{Table: "small", Columns: []string{"x"}})
	const q = `SELECT g.c, COUNT(*) FROM big g, small s
		WHERE g.b = s.x
		  AND g.b IN (SELECT b FROM big GROUP BY b HAVING COUNT(*) < 3)
		  AND s.x IN (SELECT x FROM small GROUP BY x HAVING COUNT(*) < 3)
		GROUP BY g.c`
	p := f.optimize(t, q, Options{})
	mj, ok := p.Root.(*plan.HashAgg).Input.(*plan.MergeJoin)
	if !ok {
		t.Fatalf("expected merge join:\n%s", p.Explain())
	}
	if len(mj.L.KeyIns)+len(mj.R.KeyIns) != 2 {
		t.Errorf("both IN filters should apply at the key level: %d/%d",
			len(mj.L.KeyIns), len(mj.R.KeyIns))
	}
	noIx := f.optimize(t, q, Options{NoIndexOnly: true})
	if p.Est.Seconds*3 > noIx.Est.Seconds {
		t.Errorf("merge join (%.1fs) should be far cheaper than scanning (%.1fs)",
			p.Est.Seconds, noIx.Est.Seconds)
	}
}

func TestHypotheticalPenaltyIncreasesEstimate(t *testing.T) {
	f := newFixture(t)
	// A hypothetical index on big.b.
	info := f.phys.Tables["big"]
	hypo := &plan.IndexInfo{
		Def:          conf.IndexDef{Table: "big", Columns: []string{"b"}},
		Name:         "ix_big_b",
		Cols:         []int{1},
		Hypothetical: true,
		KeyNDV:       []int64{100},
		Height:       2, LeafPages: 50, EntriesPerLeaf: 200,
		Bytes: 50 * 4096,
	}
	_ = info
	f.phys.Indexes["big"] = []*plan.IndexInfo{hypo}
	q := "SELECT a, c FROM big WHERE b = 5"
	plain := f.optimize(t, q, Options{HypoRowPenalty: 1})
	penal := f.optimize(t, q, Options{HypoRowPenalty: 10})
	ideal := f.optimize(t, q, Options{HypoRowPenalty: 10, HypoIdeal: true})
	if penal.Est.Seconds < plain.Est.Seconds {
		t.Errorf("penalty should not reduce the estimate: %v vs %v", penal.Est.Seconds, plain.Est.Seconds)
	}
	if ideal.Est.Seconds > plain.Est.Seconds*1.01 {
		t.Errorf("HypoIdeal should neutralize the penalty: %v vs %v", ideal.Est.Seconds, plain.Est.Seconds)
	}
}

func TestInSetPlanPrefersIndex(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"b"}})
	p := f.optimize(t, `SELECT y, COUNT(*) FROM small
		WHERE x IN (SELECT b FROM big GROUP BY b HAVING COUNT(*) < 300) GROUP BY y`, Options{})
	if len(p.InSets) != 1 {
		t.Fatalf("insets = %d", len(p.InSets))
	}
	if p.InSets[0].Index == nil {
		t.Errorf("IN-set should use the index on big.b:\n%s", p.Explain())
	}
	// Without the index: sequential aggregation.
	f2 := newFixture(t)
	p2 := f2.optimize(t, `SELECT y, COUNT(*) FROM small
		WHERE x IN (SELECT b FROM big GROUP BY b HAVING COUNT(*) < 300) GROUP BY y`, Options{})
	if p2.InSets[0].Index != nil {
		t.Error("no index available, yet the IN-set plan claims one")
	}
}

func TestEstimateWithinFactorOfActualCosts(t *testing.T) {
	// Cardinality sanity: estimated output rows for a grouped query are
	// positive and bounded by input size.
	f := newFixture(t)
	p := f.optimize(t, "SELECT b, COUNT(*) FROM big GROUP BY b", Options{})
	if p.Root.Estimate().Rows <= 0 || p.Root.Estimate().Rows > 20000 {
		t.Errorf("group estimate = %v", p.Root.Estimate().Rows)
	}
	if p.Est.Seconds <= 0 {
		t.Error("estimate must be positive")
	}
}

func TestRangePlan(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"a"}})
	p := f.optimize(t, "SELECT a, c FROM big WHERE a < 50", Options{})
	scan, ok := p.Root.(*plan.Project).Input.(*plan.IndexScan)
	if !ok || scan.Range == nil {
		t.Fatalf("expected range index scan:\n%s", p.Explain())
	}
	if scan.Range.Op != "<" || scan.Range.Value.I != 50 {
		t.Errorf("range = %+v", scan.Range)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	f := newFixture(t)
	p := f.optimize(t, "SELECT y, COUNT(*) FROM small s, big g GROUP BY y", Options{})
	if p.Est.Rows <= 0 {
		t.Error("cross join must still plan")
	}
	hj, ok := p.Root.(*plan.HashAgg).Input.(*plan.HashJoin)
	if !ok || len(hj.BuildKeys) != 0 {
		t.Fatalf("expected keyless hash join:\n%s", p.Explain())
	}
}

func TestTailFraction(t *testing.T) {
	cases := []struct {
		op       string
		k, avg   float64
		min, max float64
	}{
		{"<", 4, 3.65, 0.3, 0.6},
		{"<", 1, 10, 0, 0},
		{">", 1, 10, 0.9, 1},
		{"=", 2, 2, 0.2, 0.5},
		{"<=", 100, 3, 1, 1},
	}
	for _, c := range cases {
		got := tailFraction(c.op, c.k, c.avg)
		if got < c.min || got > c.max {
			t.Errorf("tailFraction(%s, %v, %v) = %v, want [%v, %v]",
				c.op, c.k, c.avg, got, c.min, c.max)
		}
	}
}

// TestLosingCandidatesAllocateNothing: an index that never wins costs an
// Optimize call its pricing and nothing more. The search builds no node,
// bind list or filter list for a candidate that loses.
func TestLosingCandidatesAllocateNothing(t *testing.T) {
	f := newFixture(t, conf.IndexDef{Table: "big", Columns: []string{"b"}})
	stmt, err := sql.ParseSelect(`SELECT s.y, COUNT(*) FROM small s, big g
		WHERE s.x = g.b AND s.y = 3 GROUP BY s.y`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(f.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	optimize := func() *plan.Plan {
		p, err := Optimize(f.phys, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	want := optimize().Explain()
	counts := []float64{testing.AllocsPerRun(20, func() { optimize() })}
	losers := [][]string{{"c"}, {"a"}, {"c", "a"}, {"a", "c"}, {"c", "b"}, {"a", "b"}, {"payload"}, {"payload", "a"}}
	for i, cols := range losers {
		ix := buildIndex(f.phys.Tables["big"].Heap, conf.IndexDef{Table: "big", Columns: cols})
		ix.Tree, ix.Hypothetical = nil, true
		f.phys.Indexes["big"] = append(f.phys.Indexes["big"], ix)
		if i%4 == 3 {
			plan.SortIndexes(f.phys.Indexes["big"])
			if got := optimize().Explain(); got != want {
				t.Fatalf("an added index won:\n%s\nwant:\n%s", got, want)
			}
			counts = append(counts, testing.AllocsPerRun(20, func() { optimize() }))
		}
	}
	t.Logf("allocations with 0, 4 and 8 losing indexes: %v", counts)
	if counts[2] > counts[0]+2 {
		t.Errorf("eight losing indexes took Optimize from %v to %v allocations", counts[0], counts[2])
	}
}
