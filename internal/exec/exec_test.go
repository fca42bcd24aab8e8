package exec_test

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/optimizer"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/val"
)

// world is a tiny single-schema physical design for executor tests:
//
//	t(k BIGINT, g BIGINT mod 10, s VARCHAR)   2000 rows
//	u(k BIGINT mod 50, v BIGINT)              300 rows
type world struct {
	schema *catalog.Schema
	phys   *plan.Physical
}

func newWorld(t *testing.T, indexes ...conf.IndexDef) *world {
	t.Helper()
	return newWorldRows(t, 2000, indexes...)
}

// newWorldRows is newWorld with tRows rows in t instead of 2000.
func newWorldRows(t *testing.T, tRows int, indexes ...conf.IndexDef) *world {
	t.Helper()
	schema := catalog.NewSchema("w")
	tt := catalog.MustTable("t", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Domain: "k", Indexable: true},
		{Name: "g", Type: catalog.TypeInt, Indexable: true},
		{Name: "s", Type: catalog.TypeString, Indexable: true, AvgWidth: 8},
	}, []string{"k"})
	uu := catalog.MustTable("u", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Domain: "k", Indexable: true},
		{Name: "v", Type: catalog.TypeInt, Indexable: true},
	}, nil)
	schema.MustAdd(tt)
	schema.MustAdd(uu)

	ht := storage.NewHeap(tt)
	for i := 0; i < tRows; i++ {
		if _, err := ht.Insert(nil, val.Row{
			val.Int(int64(i)), val.Int(int64(i % 10)), val.String(string(rune('a' + i%5))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	hu := storage.NewHeap(uu)
	for i := 0; i < 300; i++ {
		if _, err := hu.Insert(nil, val.Row{val.Int(int64(i % 50)), val.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	phys := &plan.Physical{
		Schema: schema,
		Tables: map[string]*plan.TableInfo{
			"t": {Table: tt, Heap: ht, Stats: stats.Collect(ht)},
			"u": {Table: uu, Heap: hu, Stats: stats.Collect(hu)},
		},
		Indexes: make(map[string][]*plan.IndexInfo),
		Mem:     1 << 40,
		Model:   cost.Desktop2005(),
	}
	for _, d := range indexes {
		key := strings.ToLower(d.Table)
		h := phys.Tables[key].Heap
		cols := make([]int, len(d.Columns))
		for i, c := range d.Columns {
			cols[i] = h.Table.ColumnIndex(c)
		}
		tree := btree.New(false)
		var ndv int64
		last := val.Row(nil)
		h.Scan(nil, func(id storage.RowID, r val.Row) bool {
			key := r.Project(cols)
			if err := tree.Insert(key, int64(id)); err != nil {
				t.Fatal(err)
			}
			return true
		})
		it := tree.Scan()
		for {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			if last == nil || val.CompareRows(last, k) != 0 {
				ndv++
			}
			last = k.Clone()
		}
		ndvs := make([]int64, len(cols))
		for i := range ndvs {
			ndvs[i] = ndv // upper bound; fine for tests
		}
		phys.Indexes[key] = append(phys.Indexes[key], &plan.IndexInfo{
			Def: d, Name: d.Name(), Cols: cols, Tree: tree, KeyNDV: ndvs,
			Height: tree.Height(), LeafPages: tree.LeafPages(),
			EntriesPerLeaf: tree.EntriesPerLeafPage(), Bytes: tree.Bytes(),
		})
	}
	return &world{schema: schema, phys: phys}
}

func (w *world) run(t *testing.T, text string, opts optimizer.Options, limit float64) (*exec.Result, *exec.Ctx, error) {
	t.Helper()
	stmt, err := sql.ParseSelect(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(w.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Optimize(w.phys, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &exec.Ctx{Model: w.phys.Model, LimitSeconds: limit}
	res, err := exec.Run(p, ctx)
	return res, ctx, err
}

func TestAggregatesMatchHandComputation(t *testing.T) {
	w := newWorld(t)
	res, _, err := w.run(t, `SELECT g, COUNT(*), SUM(k), MIN(k), MAX(k), AVG(k), COUNT(DISTINCT s)
		FROM t GROUP BY g`, optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Group g: k in {g, g+10, ..., g+1990}: 200 values.
	for _, r := range res.Rows {
		g := r[0].I
		if r[1].I != 200 {
			t.Errorf("g=%d count=%d", g, r[1].I)
		}
		wantSum := float64(200*g) + 10*float64(199*200/2)
		if r[2].F != wantSum {
			t.Errorf("g=%d sum=%v want %v", g, r[2].F, wantSum)
		}
		if r[3].I != g || r[4].I != g+1990 {
			t.Errorf("g=%d min/max = %v/%v", g, r[3], r[4])
		}
		if r[5].F != wantSum/200 {
			t.Errorf("g=%d avg=%v", g, r[5].F)
		}
		// i%5 is determined by i%10, so each group sees one letter.
		if r[6].I != 1 {
			t.Errorf("g=%d distinct=%d", g, r[6].I)
		}
	}
}

func TestResultsIdenticalAcrossPlanShapes(t *testing.T) {
	queries := []string{
		`SELECT g, COUNT(*) FROM t WHERE k < 100 GROUP BY g`,
		`SELECT u.v, COUNT(*) FROM t, u WHERE t.k = u.k GROUP BY u.v`,
		`SELECT g, COUNT(*) FROM t WHERE k IN (SELECT k FROM u GROUP BY k HAVING COUNT(*) > 5) GROUP BY g`,
	}
	bare := newWorld(t)
	indexed := newWorld(t,
		conf.IndexDef{Table: "t", Columns: []string{"k"}},
		conf.IndexDef{Table: "t", Columns: []string{"k", "g"}},
		conf.IndexDef{Table: "u", Columns: []string{"k"}})
	for _, q := range queries {
		r1, _, err := bare.run(t, q, optimizer.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		r2, _, err := indexed.run(t, q, optimizer.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("%s: %d vs %d rows", q, len(r1.Rows), len(r2.Rows))
		}
		for i := range r1.Rows {
			if val.CompareRows(r1.Rows[i], r2.Rows[i]) != 0 {
				t.Fatalf("%s: row %d differs: %v vs %v", q, i, r1.Rows[i], r2.Rows[i])
			}
		}
	}
}

func TestTimeoutPropagates(t *testing.T) {
	w := newWorld(t)
	_, _, err := w.run(t, `SELECT g, COUNT(*) FROM t GROUP BY g`, optimizer.Options{}, 1e-9)
	if err != exec.ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestMeterAccountsScanPages(t *testing.T) {
	w := newWorld(t)
	_, ctx, err := w.run(t, `SELECT g, COUNT(*) FROM t GROUP BY g`, optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	heapPages := w.phys.Tables["t"].Heap.Pages()
	if ctx.Meter.SeqPages != heapPages {
		t.Errorf("scan billed %d pages, heap has %d", ctx.Meter.SeqPages, heapPages)
	}
	if ctx.Meter.Rows < 2000 {
		t.Errorf("rows billed %d", ctx.Meter.Rows)
	}
}

func TestSpillBilling(t *testing.T) {
	w := newWorld(t)
	w.phys.Mem = 1 // force every hash structure to spill
	_, ctx, err := w.run(t, `SELECT u.v, COUNT(*) FROM t, u WHERE t.k = u.k GROUP BY u.v`,
		optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Meter.WritePage == 0 {
		t.Error("a 1-byte memory budget must cause spills")
	}
}

func TestResultsSortedAndColumnsNamed(t *testing.T) {
	w := newWorld(t)
	res, _, err := w.run(t, `SELECT g, COUNT(*) FROM t GROUP BY g`, optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "g" || res.Cols[1] != "COUNT(*)" {
		t.Errorf("cols = %v", res.Cols)
	}
	if !sort.SliceIsSorted(res.Rows, func(i, j int) bool {
		return val.CompareRows(res.Rows[i], res.Rows[j]) < 0
	}) {
		t.Error("rows must arrive sorted")
	}
}

func TestProjectionQuery(t *testing.T) {
	w := newWorld(t, conf.IndexDef{Table: "t", Columns: []string{"k"}})
	res, _, err := w.run(t, `SELECT s, g FROM t WHERE k = 42`, optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "c" || res.Rows[0][1].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestRidSortBillsSequential verifies the list-prefetch billing contract:
// a selective lookup through a rid-sorting index scan pays sequential
// pages for its fetches, not one random page per row.
func TestRidSortBillsSequential(t *testing.T) {
	w := newWorld(t, conf.IndexDef{Table: "t", Columns: []string{"g"}})
	// g = 5 matches 200 rows; the plan must not bill 200 random pages.
	_, ctx, err := w.run(t, `SELECT g, s, COUNT(*) FROM t WHERE g = 5 GROUP BY g, s`,
		optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Meter.RandPages > 50 {
		t.Errorf("selective lookup billed %d random pages; rid-sort or scan should avoid that",
			ctx.Meter.RandPages)
	}
}

// TestInSetComputationEquivalence: the IN set computed through an
// index-only scan must equal the one computed by scan+aggregate.
func TestInSetComputationEquivalence(t *testing.T) {
	const q = `SELECT v, COUNT(*) FROM u
		WHERE k IN (SELECT g FROM t GROUP BY g HAVING COUNT(*) >= 200) GROUP BY v`
	bare := newWorld(t)
	indexed := newWorld(t, conf.IndexDef{Table: "t", Columns: []string{"g"}})
	r1, _, err := bare.run(t, q, optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := indexed.run(t, q, optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("IN-set paths disagree: %d vs %d rows", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if val.CompareRows(r1.Rows[i], r2.Rows[i]) != 0 {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestOrderByExecution(t *testing.T) {
	w := newWorld(t)
	res, _, err := w.run(t, `SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g DESC`,
		optimizer.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].I < res.Rows[i][0].I {
			t.Fatalf("rows not descending at %d: %v", i, res.Rows)
		}
	}
}

// TestMergePartialsLeavesInputsIntact pins the contract MergePartials
// declares (conflint:pure, which cannot see through the fresh executor):
// the partials are observed, not consumed. Two partitions carrying the
// same groups are merged twice — the second merge must equal the first —
// and each partial merged alone afterwards must still equal the
// single-partition run, i.e. its group states were never folded into.
func TestMergePartialsLeavesInputsIntact(t *testing.T) {
	w := newWorld(t)
	stmt, err := sql.ParseSelect(`SELECT g, COUNT(*), SUM(k), MIN(k), MAX(k), COUNT(DISTINCT s)
		FROM t GROUP BY g`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sql.Analyze(w.schema, stmt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Optimize(w.phys, q, optimizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	newCtx := func() *exec.Ctx { return &exec.Ctx{Model: w.phys.Model} }
	render := func(res *exec.Result) string {
		var b strings.Builder
		for _, r := range res.Rows {
			for _, v := range r {
				b.WriteString(v.String())
				b.WriteByte(' ')
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	merge := func(parts ...*exec.Partial) string {
		t.Helper()
		res, err := exec.MergePartials(p, parts, newCtx())
		if err != nil {
			t.Fatal(err)
		}
		return render(res)
	}

	single, err := exec.Run(p, newCtx())
	if err != nil {
		t.Fatal(err)
	}
	var parts [2]*exec.Partial
	for i := range parts {
		if parts[i], err = exec.RunPartial(p, newCtx()); err != nil {
			t.Fatal(err)
		}
	}

	first := merge(parts[0], parts[1])
	if first == render(single) {
		t.Fatal("two partitions merged to the single-partition result: the fold did nothing")
	}
	if again := merge(parts[0], parts[1]); again != first {
		t.Errorf("second merge of the same partials differs:\n%s\nvs\n%s", again, first)
	}
	for i, part := range parts {
		if alone := merge(part); alone != render(single) {
			t.Errorf("partial %d was mutated by the merges:\n%s\nwant\n%s", i, alone, render(single))
		}
	}
}
