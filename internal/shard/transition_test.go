package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/btree"
	"repro/internal/conf"
	"repro/internal/engine"
)

// TestTransitionRacingQueriesSeeOneConfiguration runs queries while the
// cluster transitions back and forth between 1C and P: each query must
// report the simulated seconds it reports under one of the two, never a
// mix of a coordinator under one and partitions under the other.
func TestTransitionRacingQueriesSeeOneConfiguration(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	oneC, p := coord.Current(), engine.PConfiguration(coord)
	// Single-table queries: cheap, and their partitions' plans change
	// with the configuration.
	queries := clusterQueries[2:4]
	want := make([]map[float64]bool, len(queries))
	for i := range want {
		want[i] = make(map[float64]bool)
	}
	for _, cfg := range []conf.Configuration{p, oneC} {
		if _, err := cl.Transition(cfg); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			_, m, err := cl.Run(q, 0)
			if err != nil {
				t.Fatal(err)
			}
			want[i][m.Seconds] = true
		}
	}

	const readers, rounds = 2, 6
	var done atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) { // conflint:worker test reader, joined by wg.Wait below
			defer wg.Done()
			for k := g; !done.Load(); k++ {
				i := k % len(queries)
				_, m, err := cl.Run(queries[i], 0)
				if err != nil {
					errc <- err
					return
				}
				if !want[i][m.Seconds] {
					t.Errorf("query %d reported %v simulated seconds, neither its 1C nor its P figure %v", i, m.Seconds, want[i])
					return
				}
			}
		}(g)
	}
	for r := 0; r < rounds; r++ {
		for _, cfg := range []conf.Configuration{p, oneC} {
			if _, err := cl.Transition(cfg); err != nil {
				t.Error(err)
			}
		}
	}
	done.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestFailedPartitionBuildKeepsServing fails one partition's build in the
// middle of a cluster Transition: the coordinator and every partition
// stay on the previous configuration, and queries cost what they did.
func TestFailedPartitionBuildKeepsServing(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := coord.Current()
	q := clusterQueries[1]
	_, m0, err := cl.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}

	errBuild := errors.New("injected partition build failure")
	var calls atomic.Int32
	transitionPartition = func(e *engine.Engine, cfg conf.Configuration) (engine.BuildReport, error) {
		if calls.Add(1) == 2 {
			return engine.BuildReport{}, errBuild
		}
		return e.Transition(cfg)
	}
	defer func() { transitionPartition = (*engine.Engine).Transition }()

	if _, err := cl.Transition(engine.PConfiguration(coord)); !errors.Is(err, errBuild) {
		t.Fatalf("Transition error = %v, want the injected one", err)
	}
	if got := coord.Current(); got.Name != before.Name || len(got.Indexes) != len(before.Indexes) {
		t.Errorf("coordinator moved to %q (%d indexes) after a failed partition build", got.Name, len(got.Indexes))
	}
	wantIx := len(baseOnly(coord.Schema, before).Indexes)
	for i, sh := range cl.top.Load().shards {
		if got := sh.Current(); got.Name != before.Name || len(got.Indexes) != wantIx {
			t.Errorf("partition %d moved to %q (%d indexes) after a failed partition build", i, got.Name, len(got.Indexes))
		}
	}
	if _, m, err := cl.Run(q, 0); err != nil || m.Seconds != m0.Seconds {
		t.Errorf("after the failed Transition the query costs %v (err %v), before it %v", m.Seconds, err, m0.Seconds)
	}
}

// treesOf returns the trees of an engine's built indexes by name.
func treesOf(e *engine.Engine) map[string]*btree.Tree {
	out := make(map[string]*btree.Tree)
	for _, ixs := range e.Physical().Indexes {
		for _, ix := range ixs {
			out[ix.Name] = ix.Tree
		}
	}
	return out
}

// TestTransitionsShareTrees swings a cluster from 1C to P and on to 1C
// with a view and an index on it — its partitions transition in parallel
// over the pool — while two forks of the coordinator make the same swing:
// the coordinator and the forks share one memo, so they hold one view
// heap and one tree over it, and every partition's generations share
// their own memo. Everything ends on the trees 1C was built with. Run
// under `make race`.
func TestTransitionsShareTrees(t *testing.T) {
	coord := testCoord(t)
	cl, err := New(coord, Spec{Shards: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	oneC, p := coord.Current(), engine.PConfiguration(coord)
	withView := oneC.Clone()
	withView.Views = append(withView.Views, conf.ViewDef{
		Name:       "mv_tax_src",
		SQL:        "SELECT t.nref_id, t.lineage, s.p_name FROM taxonomy t, source s WHERE t.nref_id = s.nref_id",
		BaseTables: []string{"taxonomy", "source"},
	})
	withView.AddIndex(conf.IndexDef{Table: "mv_tax_src", Columns: []string{"c1"}})
	want := treesOf(coord)
	parts := cl.top.Load().shards
	wantParts := make([]map[string]*btree.Tree, len(parts))
	for i, sh := range parts {
		wantParts[i] = treesOf(sh)
	}
	forks := []*engine.Engine{coord.Fork(), coord.Fork()}

	var wg sync.WaitGroup
	errc := make(chan error, len(forks)+1)
	swing := func(transition func(conf.Configuration) (engine.BuildReport, error)) {
		defer wg.Done()
		for _, cfg := range []conf.Configuration{p, withView} {
			if _, err := transition(cfg); err != nil {
				errc <- err
				return
			}
		}
	}
	wg.Add(1 + len(forks))
	go swing(cl.Transition) // conflint:worker test swing, joined by wg.Wait below
	for _, f := range forks {
		go swing(f.Transition) // conflint:worker test swing, joined by wg.Wait below
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	same := func(label string, got, want map[string]*btree.Tree) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d indexes, want %d", label, len(got), len(want))
		}
		for name, tree := range want {
			if got[name] != tree {
				t.Errorf("%s: %s holds another tree than the coordinator's", label, name)
			}
		}
	}
	withViewTrees := treesOf(coord)
	if len(withViewTrees) != len(want)+1 {
		t.Fatalf("coordinator: %d indexes, want 1C's %d and the one on the view", len(withViewTrees), len(want))
	}
	for name, tree := range want {
		if withViewTrees[name] != tree {
			t.Errorf("coordinator: %s holds another tree than 1C was built with", name)
		}
	}
	views := coord.Physical().Views
	if len(views) != 1 {
		t.Fatalf("the coordinator serves %d views, want 1", len(views))
	}
	for i, f := range forks {
		same(fmt.Sprintf("fork %d", i), treesOf(f), withViewTrees)
		if fv := f.Physical().Views; len(fv) != 1 || fv[0].Heap != views[0].Heap {
			t.Errorf("fork %d does not serve the coordinator's view heap", i)
		}
	}
	for i, sh := range cl.top.Load().shards {
		same(fmt.Sprintf("partition %d", i), treesOf(sh), wantParts[i])
	}
}
