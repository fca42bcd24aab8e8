package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/val"
)

// memoCounts is a reading of the memo's counters.
type memoCounts struct {
	builds       int64 // fillTree runs and view materializations
	held         int   // built entries held, trees and views
	heldViews    int
	bytes, limit int64 // modeled bytes of the held entries, and the bound
	heaps        int   // heaps the memo keeps a record of
}

func (m *memo) counts() memoCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := memoCounts{builds: m.builds, held: len(m.order), bytes: m.bytes, limit: m.limit, heaps: len(m.heaps)}
	for _, en := range m.order {
		if en.view != nil {
			c.heldViews++
		}
	}
	return c
}

// builtIndexes returns the engine's built indexes by name.
func builtIndexes(e *Engine) map[string]*plan.IndexInfo {
	out := make(map[string]*plan.IndexInfo)
	for _, tab := range e.Schema.Tables() {
		for _, ix := range e.Indexes(tab.Name) {
			out[ix.Name] = ix
		}
	}
	return out
}

// sameTrees reports every index of want that got holds over another tree
// or another KeyNDV.
func sameTrees(t *testing.T, label string, got, want map[string]*plan.IndexInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d indexes, want %d", label, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Fatalf("%s: no index %s", label, name)
		}
		if g.Tree != w.Tree {
			t.Errorf("%s: %s holds another tree", label, name)
		}
		if len(g.KeyNDV) == 0 || &g.KeyNDV[0] != &w.KeyNDV[0] {
			t.Errorf("%s: %s holds another KeyNDV", label, name)
		}
	}
}

// composite is configsUnderTest's hand-written configuration: P plus
// three multi-column indexes and one single-column one.
func composite(e *Engine) conf.Configuration { return configsUnderTest(e)[2] }

// TestTransitionBackReusesTrees: a P → R → P → R swing builds R's trees
// once. The second R holds the first's trees and reports the same
// BuildReport, field by field — AT is billed on a reused tree exactly as
// on a build — and a fork transitioning to R holds them too.
func TestTransitionBackReusesTrees(t *testing.T) {
	e := testNREF(t, SystemA())
	p, r := PConfiguration(e), composite(e)
	if _, err := e.ApplyConfig(p); err != nil {
		t.Fatal(err)
	}
	first, err := e.Transition(r)
	if err != nil {
		t.Fatal(err)
	}
	if first.Built != 4 || first.BuildSeconds <= 0 {
		t.Fatalf("P → R built %d structures in %.3fs, want 4 in positive time", first.Built, first.BuildSeconds)
	}
	built := builtIndexes(e)
	if _, err := e.Transition(p); err != nil {
		t.Fatal(err)
	}
	second, err := e.Transition(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second, first) {
		t.Errorf("second P → R reports %+v, the first %+v", second, first)
	}
	sameTrees(t, "second R", builtIndexes(e), built)

	if _, err := e.Transition(p); err != nil {
		t.Fatal(err)
	}
	f := e.Fork()
	forked, err := f.Transition(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forked, first) {
		t.Errorf("the fork's P → R reports %+v, the engine's %+v", forked, first)
	}
	sameTrees(t, "fork's R", builtIndexes(f), built)
}

// entries lists a tree's (key, rid) pairs in scan order.
func entries(tree *btree.Tree) []string {
	var out []string
	it := tree.Scan()
	for key, rid, ok := it.Next(); ok; key, rid, ok = it.Next() {
		out = append(out, fmt.Sprintf("%s#%d", key.Key(), rid))
	}
	return out
}

// TestGrownHeapGetsNewTrees: InsertRows and Load replace a table's heap,
// and a build over the grown heap misses the memo — its tree indexes
// every row — while a fork still serving the old heap walks its old,
// unchanged trees and still reuses them when it transitions back.
func TestGrownHeapGetsNewTrees(t *testing.T) {
	e := testNREF(t, SystemA())
	p, r := PConfiguration(e), composite(e)
	if _, err := e.ApplyConfig(r); err != nil {
		t.Fatal(err)
	}
	old := builtIndexes(e)
	oldSource := e.Indexes("source")
	scans := make(map[string][]string)
	for _, ix := range oldSource {
		scans[ix.Name] = entries(ix.Tree)
	}
	f := e.Fork()
	builds0 := e.built.counts().builds

	row := e.Heap("source").Get(0).Clone()
	if _, err := e.InsertRows("source", []val.Row{row}); err != nil {
		t.Fatal(err)
	}
	builds1 := e.built.counts().builds
	if got := builds1 - builds0; got != int64(len(oldSource)) {
		t.Errorf("InsertRows ran fillTree %d times, want once per index on source (%d)", got, len(oldSource))
	}
	rows := e.Heap("source").NumRows()
	for i, ix := range e.Indexes("source") {
		if ix.Tree == oldSource[i].Tree || ix.Tree.Len() != rows {
			t.Errorf("after InsertRows %s holds the old tree or misses rows: %d entries, heap %d", ix.Name, ix.Tree.Len(), rows)
		}
	}

	if err := e.Load("source", []val.Row{row}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []conf.Configuration{p, r} {
		if _, err := e.Transition(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, ix := range e.Indexes("source") {
		if ix.Def.Auto {
			continue // kept across the swing
		}
		if ix.Tree == old[ix.Name].Tree || ix.Tree.Len() != rows+1 {
			t.Errorf("after Load %s holds a tree of %d entries, want a new one of %d", ix.Name, ix.Tree.Len(), rows+1)
		}
	}

	// The fork serves the old heap: its trees are the ones it had, entry
	// for entry, and a swing on it reuses them.
	sameTrees(t, "fork", builtIndexes(f), old)
	for _, ix := range f.Indexes("source") {
		if !reflect.DeepEqual(entries(ix.Tree), scans[ix.Name]) {
			t.Errorf("the fork's %s changed under it", ix.Name)
		}
	}
	for _, c := range []conf.Configuration{p, r} {
		if _, err := f.Transition(c); err != nil {
			t.Fatal(err)
		}
	}
	sameTrees(t, "fork after a swing", builtIndexes(f), old)
}

// withViews returns a copy of c that also materializes the views.
func withViews(c conf.Configuration, views ...conf.ViewDef) conf.Configuration {
	c = c.Clone()
	c.Views = append(c.Views, views...)
	return c
}

// wideView is a view of orders ⋈ lineitem projecting every column of the
// order and the lineitem column col: one distinct view per column.
func wideView(col string) conf.ViewDef {
	return conf.ViewDef{
		Name: "mv_" + col,
		SQL: "SELECT a.o_orderkey, a.o_custkey, a.o_orderstatus, a.o_totalprice, a.o_orderdate, " +
			"a.o_orderpriority, a.o_clerk, a.o_shippriority, a.o_comment, b." + col +
			" FROM orders a, lineitem b WHERE a.o_orderkey = b.l_orderkey",
		BaseTables: []string{"orders", "lineitem"},
	}
}

// TestTreeMemoBound swings between one configuration and more distinct
// structures than the bound holds — two-column indexes on NREF, views on
// TPC-H: after every transition the memo's trees and view heaps stay
// within it, the swing target is never evicted because every return
// reuses it, and the least recently used structure goes first — a
// transition back to it rebuilds it with the same report.
func TestTreeMemoBound(t *testing.T) {
	t.Run("trees", func(t *testing.T) {
		e := testNREF(t, SystemA())
		var cfgs []conf.Configuration
		for _, tab := range e.Schema.Tables() {
			cols := tab.IndexableColumns()
			for _, a := range cols {
				for _, b := range cols {
					if a != b {
						c := PConfiguration(e)
						c.AddIndex(conf.IndexDef{Table: tab.Name, Columns: []string{a, b}})
						cfgs = append(cfgs, c)
					}
				}
			}
		}
		swingPastBound(t, e, cfgs)
	})
	t.Run("views", func(t *testing.T) {
		e := tpchEngine(t)
		p := PConfiguration(e)
		var cfgs []conf.Configuration
		for _, col := range e.Schema.Table("lineitem").IndexableColumns() {
			cfgs = append(cfgs, withViews(p, wideView(col)))
		}
		swingPastBound(t, e, cfgs)
		if n := e.built.counts(); n.heldViews == 0 {
			t.Errorf("the memo holds no view: %+v", n)
		}
	})
}

// swingPastBound transitions e to cfgs[0], then to each other
// configuration and back, and holds the memo to its bound and its
// least-recently-used order (see TestTreeMemoBound).
func swingPastBound(t *testing.T, e *Engine, cfgs []conf.Configuration) {
	t.Helper()
	if _, err := e.Transition(cfgs[0]); err != nil {
		t.Fatal(err)
	}
	var first BuildReport // cfgs[0] → cfgs[1]
	for i, c := range cfgs[1:] {
		rep, err := e.Transition(c)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = rep
		}
		n := e.built.counts()
		if n.bytes > n.limit {
			t.Fatalf("after %d swings the memo holds %d bytes, over its bound %d", i+1, n.bytes, n.limit)
		}
		if _, err := e.Transition(cfgs[0]); err != nil {
			t.Fatal(err)
		}
		if again := e.built.counts().builds; again != n.builds {
			t.Fatalf("swing %d: the way back rebuilt the swing target", i+1)
		}
	}
	n := e.built.counts()
	if n.held >= int(n.builds) {
		t.Fatalf("%d builds, %d held: the run never reached the bound", n.builds, n.held)
	}
	rep, err := e.Transition(cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if again := e.built.counts().builds; again != n.builds+1 {
		t.Errorf("the least recently used structure was not evicted: going back ran %d builds", again-n.builds)
	}
	if !reflect.DeepEqual(rep, first) {
		t.Errorf("rebuilt after eviction %+v, first built %+v", rep, first)
	}
}

// TestTreeMemoForgetsReplacedHeap: once nothing serves a replaced heap
// it is collected, and its trees and the views that read it leave the
// memo with it.
func TestTreeMemoForgetsReplacedHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setUp func(*testing.T) (*Engine, conf.Configuration, string)
	}{
		{"trees", func(t *testing.T) (*Engine, conf.Configuration, string) {
			e := testNREF(t, SystemA())
			return e, OneColumnConfiguration(e), "source"
		}},
		{"views", func(t *testing.T) (*Engine, conf.Configuration, string) {
			e := tpchEngine(t)
			return e, withViews(PConfiguration(e), ordersLineitemView()), "lineitem"
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, c, table := tc.setUp(t)
			if _, err := e.ApplyConfig(c); err != nil {
				t.Fatal(err)
			}
			views := e.built.counts().heldViews
			if views != len(c.Views) {
				t.Fatalf("the memo holds %d views, want %d", views, len(c.Views))
			}
			row := e.Heap(table).Get(0).Clone()
			if _, err := e.InsertRows(table, []val.Row{row}); err != nil {
				t.Fatal(err)
			}
			tables := len(e.Schema.Tables())
			deadline := time.Now().Add(10 * time.Second)
			for {
				runtime.GC()
				n := e.built.counts()
				if n.heaps == tables && n.heldViews == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the memo still holds structures over %d heaps and %d views, want the %d heaps the engine serves and no view", n.heaps, n.heldViews, tables)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestForksTransitionConcurrently: two forks swinging through the same
// configurations at once share one memo — each (heap, key columns) pair
// and each view is built once, and both hold the same trees and views.
// The TPC-H configurations share P's base-table indexes, so each view has
// one set of build inputs, and the forks claim it concurrently. Run under
// -race.
func TestForksTransitionConcurrently(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setUp func(*testing.T) (*Engine, []conf.Configuration)
	}{
		{"trees", func(t *testing.T) (*Engine, []conf.Configuration) {
			e := testNREF(t, SystemA())
			if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
				t.Fatal(err)
			}
			return e, configsUnderTest(e) // P, 1C, composite
		}},
		{"views", func(t *testing.T) (*Engine, []conf.Configuration) {
			e := tpchEngine(t)
			p := PConfiguration(e)
			var cfgs []conf.Configuration
			for _, col := range []string{"l_quantity", "l_shipdate"} {
				c := withViews(p, wideView(col))
				c.AddIndex(conf.IndexDef{Table: "mv_" + col, Columns: []string{"c9"}})
				cfgs = append(cfgs, c)
			}
			return e, append(cfgs, p)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, cfgs := tc.setUp(t)
			forks := []*Engine{e.Fork(), e.Fork()}
			var wg sync.WaitGroup
			errc := make(chan error, len(forks))
			for i, f := range forks {
				wg.Add(1)
				go func(i int, f *Engine) {
					defer wg.Done()
					for k := 0; k < 2*len(cfgs); k++ {
						if _, err := f.Transition(cfgs[(i+k)%len(cfgs)]); err != nil {
							errc <- err
							return
						}
					}
				}(i, f)
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			distinct, views := make(map[string]bool), make(map[string]bool)
			for _, c := range cfgs {
				for _, d := range c.Indexes {
					distinct[d.Name()] = true
				}
				for _, v := range c.Views {
					views[v.Name] = true
				}
			}
			if n := e.built.counts(); n.builds != int64(len(distinct)+len(views)) {
				t.Errorf("%d builds for %d distinct (heap, key columns) pairs and %d distinct views", n.builds, len(distinct), len(views))
			}
			// cfgs[1] holds only structures the forks built concurrently
			// beside P's: 1C's trees, or the second view and its index.
			for _, f := range forks {
				if _, err := f.Transition(cfgs[1]); err != nil {
					t.Fatal(err)
				}
			}
			sameTrees(t, "second fork", builtIndexes(forks[1]), builtIndexes(forks[0]))
			sameViews(t, "second fork", forks[1].Views(), forks[0].Views())
		})
	}
}

// sameViews reports every view of want that got holds over another heap.
func sameViews(t *testing.T, label string, got, want []*plan.ViewInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d views, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if got[i].Heap != w.Heap {
			t.Errorf("%s: view %s holds another heap", label, w.Def.Name)
		}
	}
}

// indexedView is P plus the orders ⋈ lineitem view and an index on it.
func indexedView(e *Engine) conf.Configuration {
	c := withViews(PConfiguration(e), ordersLineitemView())
	c.AddIndex(conf.IndexDef{Table: "mv_ord_li", Columns: []string{"c0"}})
	return c
}

// TestTransitionBackReusesViews: a P → R → P → R swing with a view and an
// index on it materializes the view once. The second R holds the first's
// view heap and the same tree on it, and reports the same BuildReport,
// field by field — AT bills a reused view exactly as a build — and a fork
// transitioning to R holds them too.
func TestTransitionBackReusesViews(t *testing.T) {
	e := tpchEngine(t)
	p, r := PConfiguration(e), indexedView(e)
	first, err := e.Transition(r)
	if err != nil {
		t.Fatal(err)
	}
	if first.Built != 2 || first.ViewSeconds <= 0 {
		t.Fatalf("P → R built %d structures, %.3fs of views; want the view and its index, in positive time", first.Built, first.ViewSeconds)
	}
	views, built := e.Views(), builtIndexes(e)
	builds := e.built.counts().builds
	for _, swing := range []*Engine{e, e.Fork()} {
		if _, err := swing.Transition(p); err != nil {
			t.Fatal(err)
		}
		again, err := swing.Transition(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("P → R again reports %+v, the first %+v", again, first)
		}
		sameViews(t, "R again", swing.Views(), views)
		sameTrees(t, "R again", builtIndexes(swing), built)
	}
	if n := e.built.counts(); n.builds != builds {
		t.Errorf("the swings back to R ran %d builds, want none", n.builds-builds)
	}
}

// TestViewMemoKeysOnBuildInputs builds one view after two index sets,
// P's and 1C's: its build plans against the serving indexes, so each is
// a build of its own, with the meter a fresh engine's build records, and
// a return to the first index set reuses the first build.
func TestViewMemoKeysOnBuildInputs(t *testing.T) {
	e := tpchEngine(t)
	v := ordersLineitemView()
	priors := []func(*Engine) conf.Configuration{PConfiguration, OneColumnConfiguration}
	var reps []BuildReport
	for _, prior := range priors {
		fresh := tpchEngine(t) // a memo of its own
		for _, eng := range []*Engine{e, fresh} {
			if _, err := eng.Transition(prior(eng)); err != nil {
				t.Fatal(err)
			}
		}
		builds := e.built.counts().builds
		got, err := e.Transition(withViews(prior(e), v))
		if err != nil {
			t.Fatal(err)
		}
		if n := e.built.counts(); n.builds != builds+1 {
			t.Errorf("after %s: %d builds, want the view's one", prior(e).Name, n.builds-builds)
		}
		want, err := fresh.Transition(withViews(prior(fresh), v))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: %+v, a fresh engine's build %+v", prior(e).Name, got, want)
		}
		reps = append(reps, got)
	}
	if reps[0].ViewSeconds == reps[1].ViewSeconds {
		t.Fatalf("P and 1C give the view build one meter (%.6fs): the test cannot tell their inputs apart", reps[0].ViewSeconds)
	}
	p := PConfiguration(e)
	builds := e.built.counts().builds
	if _, err := e.Transition(p); err != nil {
		t.Fatal(err)
	}
	again, err := e.Transition(withViews(p, v))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, reps[0]) {
		t.Errorf("back on P's indexes: %+v, the first build %+v", again, reps[0])
	}
	if n := e.built.counts(); n.builds != builds {
		t.Errorf("back on P's indexes the swing ran %d builds, want none", n.builds-builds)
	}
}

// TestGrownHeapGetsNewView: InsertRows replaces a defining table's heap,
// so P → R materializes the view again over the grown heap — for either
// defining table — and the view holds the rows its defining query
// returns now, the inserted one among them.
func TestGrownHeapGetsNewView(t *testing.T) {
	for _, table := range []string{"lineitem", "orders"} {
		t.Run(table, func(t *testing.T) {
			e := tpchEngine(t)
			p, r := PConfiguration(e), indexedView(e)
			if _, err := e.Transition(r); err != nil {
				t.Fatal(err)
			}
			old := e.Views()[0]
			if _, err := e.Transition(p); err != nil {
				t.Fatal(err)
			}
			row := e.Heap(table).Get(0).Clone()
			if _, err := e.InsertRows(table, []val.Row{row}); err != nil {
				t.Fatal(err)
			}
			res, _, err := e.Run(old.Def.SQL, 0) // under P: the base join
			if err != nil {
				t.Fatal(err)
			}
			builds := e.built.counts().builds
			if _, err := e.Transition(r); err != nil {
				t.Fatal(err)
			}
			v := e.Views()[0]
			if v.Heap == old.Heap || v.Heap.NumRows() <= old.Heap.NumRows() {
				t.Fatalf("after InsertRows the view has %d rows, %d before: want a new, grown heap", v.Heap.NumRows(), old.Heap.NumRows())
			}
			var held []val.Row
			v.Heap.Scan(nil, func(_ storage.RowID, r val.Row) bool {
				held = append(held, r)
				return true
			})
			want := res.Rows
			sortRows(held)
			sortRows(want)
			if !rowsEqual(held, want) {
				t.Errorf("the view holds %d rows, its defining query returns %d", len(held), len(want))
			}
			if ix := e.Indexes("mv_ord_li")[0]; ix.Tree.Len() != v.Heap.NumRows() {
				t.Errorf("the index on the view holds %d entries over %d rows", ix.Tree.Len(), v.Heap.NumRows())
			}
			if n := e.built.counts(); n.builds != builds+2 {
				t.Errorf("P → R over the grown heap ran %d builds, want the view and its index (2)", n.builds-builds)
			}
		})
	}
}

// TestLoadRegrowsIndexes: Load after ApplyConfig grows a table that
// already has indexes, so every index on it must cover the new row and
// a point query through one must find it.
func TestLoadRegrowsIndexes(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	row := e.Heap("protein").Get(0).Clone()
	row[0] = val.String("NFZZZZZZZZ")
	if err := e.Load("protein", []val.Row{row}); err != nil {
		t.Fatal(err)
	}
	rows := e.Heap("protein").NumRows()
	ixs := e.Indexes("protein")
	if len(ixs) == 0 {
		t.Fatal("P built no index on protein")
	}
	for _, ix := range ixs {
		if ix.Tree.Len() != rows {
			t.Errorf("%s holds %d entries over a %d-row heap", ix.Name, ix.Tree.Len(), rows)
		}
	}
	res, _, err := e.Run("SELECT nref_id FROM protein WHERE nref_id = 'NFZZZZZZZZ'", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("point query on the loaded key returned %d rows, want 1", len(res.Rows))
	}
}
