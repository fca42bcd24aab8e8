package engine

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/plan"
)

// tpchEngine builds a small skewed TPC-H engine (System C uses views).
func tpchEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(catalog.TPCH(), 0.0001, SystemC())
	if err := datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: 0.0001, Seed: 42, Skew: true, ZipfS: 1}); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

// ordersLineitemView joins orders and lineitem, projecting the columns a
// date/priority rollup needs.
func ordersLineitemView() conf.ViewDef {
	return conf.ViewDef{
		Name: "mv_ord_li",
		SQL: "SELECT a.o_orderpriority, a.o_orderdate, b.l_quantity, b.l_orderkey, a.o_orderkey " +
			"FROM orders a, lineitem b WHERE a.o_orderkey = b.l_orderkey",
		BaseTables: []string{"orders", "lineitem"},
	}
}

const rollupQuery = `
SELECT o.o_orderpriority, COUNT(*)
FROM orders o, lineitem l
WHERE o.o_orderkey = l.l_orderkey AND o.o_orderdate < 300
GROUP BY o.o_orderpriority`

func TestViewBuildAndMatch(t *testing.T) {
	e := tpchEngine(t)

	// Ground truth from the base configuration.
	resBase, mBase, err := e.Run(rollupQuery, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := PConfiguration(e)
	cfg.Name = "withview"
	cfg.Views = append(cfg.Views, ordersLineitemView())
	rep, err := e.ApplyConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.IndexBytes <= 0 {
		t.Error("view must occupy space")
	}
	if len(e.Views()) != 1 {
		t.Fatalf("views = %d", len(e.Views()))
	}

	// The optimizer should answer the rollup from the view.
	p, err := e.Prepare(rollupQuery)
	if err != nil {
		t.Fatal(err)
	}
	usesView := false
	var walk func(plan.Node)
	walk = func(n plan.Node) {
		switch n := n.(type) {
		case *plan.ViewScan:
			usesView = true
		case *plan.HashJoin:
			walk(n.Build)
			walk(n.Probe)
		case *plan.IndexJoin:
			walk(n.Outer)
		case *plan.HashAgg:
			walk(n.Input)
		case *plan.Project:
			walk(n.Input)
		}
	}
	walk(p.Root)
	if !usesView {
		t.Fatalf("expected a ViewScan:\n%s", p.Explain())
	}

	resView, mView, err := e.Run(rollupQuery, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(resBase.Rows, resView.Rows) {
		t.Fatalf("view rewrite changed results: %d vs %d rows", len(resBase.Rows), len(resView.Rows))
	}
	if mView.Seconds >= mBase.Seconds {
		t.Errorf("view scan (%.1fs) should beat the base join (%.1fs)", mView.Seconds, mBase.Seconds)
	}
}

func TestIndexedView(t *testing.T) {
	e := tpchEngine(t)
	cfg := PConfiguration(e)
	cfg.Name = "withviewindex"
	cfg.Views = append(cfg.Views, ordersLineitemView())
	// Index the view on o_orderpriority (view column c0).
	cfg.AddIndex(conf.IndexDef{Table: "mv_ord_li", Columns: []string{"c0"}})
	if _, err := e.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT o.o_orderdate, COUNT(*) FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey AND o.o_orderpriority = '1-URGENT'
		GROUP BY o.o_orderdate`
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "ViewScan") {
		t.Fatalf("expected view usage:\n%s", p.Explain())
	}
	res, _, err := e.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the base configuration.
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	resBase, _, err := e.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(res.Rows, resBase.Rows) {
		t.Fatalf("indexed view changed results: %d vs %d", len(res.Rows), len(resBase.Rows))
	}
}

func TestViewNotMatchedWhenColumnsMissing(t *testing.T) {
	e := tpchEngine(t)
	cfg := PConfiguration(e)
	v := ordersLineitemView()
	cfg.Views = append(cfg.Views, v)
	if _, err := e.ApplyConfig(cfg); err != nil {
		t.Fatal(err)
	}
	// l_extendedprice is not projected by the view: matching must fail and
	// the query still answer correctly from base tables.
	const q = `SELECT o.o_orderpriority, SUM(l.l_extendedprice) FROM orders o, lineitem l
		WHERE o.o_orderkey = l.l_orderkey GROUP BY o.o_orderpriority`
	p, err := e.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(p.Explain(), "ViewScan") {
		t.Fatalf("view lacks l_extendedprice yet was matched:\n%s", p.Explain())
	}
	if _, _, err := e.Run(q, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRebuiltViewIsPricedAndRebuilt: a target view with the serving view's
// name but different SQL is a build for Transition and for
// EstimateTransition alike, and an index on it is rebuilt with it — the
// kept index would cover the old view's rows.
func TestRebuiltViewIsPricedAndRebuilt(t *testing.T) {
	e := tpchEngine(t)
	onView := conf.IndexDef{Table: "mv_ord_li", Columns: []string{"c0"}}
	serving := PConfiguration(e)
	serving.Views = append(serving.Views, ordersLineitemView())
	serving.AddIndex(onView)
	if _, err := e.ApplyConfig(serving); err != nil {
		t.Fatal(err)
	}
	w := e.NewWhatIf()
	if et, err := w.EstimateTransition(serving); err != nil || et != 0 {
		t.Fatalf("ET to the serving configuration = %v, %v; want 0", et, err)
	}

	target := PConfiguration(e)
	v := ordersLineitemView()
	v.SQL = "SELECT a.o_orderdate, a.o_orderpriority, b.l_quantity " +
		"FROM orders a, lineitem b WHERE a.o_orderkey = b.l_orderkey"
	target.Views = append(target.Views, v)
	target.AddIndex(onView)
	et, err := w.EstimateTransition(target)
	if err != nil {
		t.Fatal(err)
	}
	if et <= 0 {
		t.Errorf("ET = %v for a view whose SQL changed; want a priced build", et)
	}
	rep, err := e.Transition(target)
	if err != nil {
		t.Fatal(err)
	}
	if p := len(PConfiguration(e).Indexes); rep.Built != 2 || rep.Kept != p {
		t.Errorf("Built %d, Kept %d; want the view and its index built, the %d P indexes kept", rep.Built, rep.Kept, p)
	}
	vi := e.Views()[0]
	ix := e.Indexes("mv_ord_li")[0]
	if ndv := vi.Stats.Cols[0].NDV; ix.KeyNDV[0] != ndv {
		t.Errorf("index on the rebuilt view has %d distinct keys, its column %d", ix.KeyNDV[0], ndv)
	}
}
