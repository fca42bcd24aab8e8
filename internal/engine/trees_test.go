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
	"repro/internal/val"
)

// memoState reads the memo's counters: fillTree runs, held trees and
// their modeled bytes, the bound, and the heaps it holds trees over.
func (m *treeMemo) memoState() (builds int64, held int, bytes, limit int64, heaps int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.builds, len(m.order), m.bytes, m.limit, len(m.heaps)
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
	builds0, _, _, _, _ := e.trees.memoState()

	row := e.Heap("source").Get(0).Clone()
	if _, err := e.InsertRows("source", []val.Row{row}); err != nil {
		t.Fatal(err)
	}
	builds1, _, _, _, _ := e.trees.memoState()
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

// TestTreeMemoBound swings between one configuration and more distinct
// two-column indexes than the bound holds: after every transition the
// memo's trees stay within it, the swing target is never evicted because
// every return reuses it, and the least recently used index goes first —
// a transition back to it rebuilds it with the same report.
func TestTreeMemoBound(t *testing.T) {
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
	if _, err := e.ApplyConfig(cfgs[0]); err != nil {
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
		builds, _, bytes, limit, _ := e.trees.memoState()
		if bytes > limit {
			t.Fatalf("after %d swings the memo holds %d bytes, over its bound %d", i+1, bytes, limit)
		}
		if _, err := e.Transition(cfgs[0]); err != nil {
			t.Fatal(err)
		}
		if again, _, _, _, _ := e.trees.memoState(); again != builds {
			t.Fatalf("swing %d: the way back rebuilt the swing target", i+1)
		}
	}
	builds, held, _, _, _ := e.trees.memoState()
	if held >= int(builds) {
		t.Fatalf("%d builds, %d held: the run never reached the bound", builds, held)
	}
	rep, err := e.Transition(cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _, _, _ := e.trees.memoState(); again != builds+1 {
		t.Errorf("the least recently used index was not evicted: going back ran fillTree %d times", again-builds)
	}
	if !reflect.DeepEqual(rep, first) {
		t.Errorf("rebuilt after eviction %+v, first built %+v", rep, first)
	}
}

// TestTreeMemoForgetsReplacedHeap: once nothing serves a replaced heap
// it is collected, and its trees leave the memo with it.
func TestTreeMemoForgetsReplacedHeap(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(OneColumnConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	row := e.Heap("source").Get(0).Clone()
	if _, err := e.InsertRows("source", []val.Row{row}); err != nil {
		t.Fatal(err)
	}
	tables := len(e.Schema.Tables())
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		_, _, _, _, heaps := e.trees.memoState()
		if heaps == tables {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the memo still holds trees over %d heaps, want the %d the engine serves", heaps, tables)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForksTransitionConcurrently: two forks swinging through the same
// configurations at once share one memo — each (heap, key columns) pair
// is built once, and both hold the same trees. Run under -race.
func TestForksTransitionConcurrently(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	cfgs := configsUnderTest(e)
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
	distinct := make(map[string]bool)
	for _, c := range cfgs {
		for _, d := range c.Indexes {
			distinct[d.Name()] = true
		}
	}
	if builds, _, _, _, _ := e.trees.memoState(); builds != int64(len(distinct)) {
		t.Errorf("fillTree ran %d times for %d distinct (heap, key columns) pairs", builds, len(distinct))
	}
	for _, f := range forks {
		if _, err := f.Transition(cfgs[1]); err != nil {
			t.Fatal(err)
		}
	}
	sameTrees(t, "second fork", builtIndexes(forks[1]), builtIndexes(forks[0]))
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
