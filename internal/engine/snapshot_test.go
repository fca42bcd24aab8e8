package engine

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/conf"
	"repro/internal/plan"
	"repro/internal/val"
)

// TestFailedReconfigureKeepsServing: a Transition or ApplyConfig that
// errors half-way (one valid new index, then an index on a missing
// column) must publish nothing — configuration, structures, query
// results, simulated cost and a warm what-if session are all as before.
func TestFailedReconfigureKeepsServing(t *testing.T) {
	for name, reconfigure := range map[string]func(*Engine, conf.Configuration) (BuildReport, error){
		"Transition":  (*Engine).Transition,
		"ApplyConfig": (*Engine).ApplyConfig,
	} {
		t.Run(name, func(t *testing.T) {
			e := testNREF(t, SystemA())
			if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
				t.Fatal(err)
			}
			bad := PConfiguration(e)
			bad.Name = "bad"
			bad.AddIndex(conf.IndexDef{Table: "taxonomy", Columns: []string{"lineage"}})
			bad.AddIndex(conf.IndexDef{Table: "source", Columns: []string{"no_such_column"}})

			w := e.NewWhatIf()
			q, err := e.AnalyzeSQL(selectiveQ)
			if err != nil {
				t.Fatal(err)
			}
			hypo := OneColumnConfiguration(e)
			estBefore, err := w.Estimate(q, hypo)
			if err != nil {
				t.Fatal(err)
			}
			resBefore, mBefore, err := e.Run(selectiveQ, 0)
			if err != nil {
				t.Fatal(err)
			}
			current, views, phys := e.Current(), e.Views(), e.Physical()
			indexes := make(map[string][]*plan.IndexInfo)
			for _, tab := range e.Schema.Tables() {
				indexes[tab.Name] = e.Indexes(tab.Name)
			}

			if _, err := reconfigure(e, bad); err == nil {
				t.Fatal("a configuration with an index on a missing column must fail")
			}

			if got := e.Current(); !reflect.DeepEqual(got, current) {
				t.Errorf("Current() = %q after the failure, want %q", got.Name, current.Name)
			}
			for tab, want := range indexes {
				if got := e.Indexes(tab); !slices.Equal(got, want) {
					t.Errorf("Indexes(%s): %d after the failure, want the same %d", tab, len(got), len(want))
				}
			}
			if got := e.Views(); !slices.Equal(got, views) {
				t.Errorf("Views() changed across the failure")
			}
			if e.Physical() != phys {
				t.Error("a failed reconfiguration published a snapshot")
			}
			resAfter, mAfter, err := e.Run(selectiveQ, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(resBefore.Rows, resAfter.Rows) || mBefore.Seconds != mAfter.Seconds {
				t.Errorf("query moved across the failure: %.6fs/%d rows, was %.6fs/%d rows",
					mAfter.Seconds, len(resAfter.Rows), mBefore.Seconds, len(resBefore.Rows))
			}
			_, hits0 := WhatIfCounters()
			estAfter, err := w.Estimate(q, hypo)
			if err != nil {
				t.Fatal(err)
			}
			if _, hits1 := WhatIfCounters(); hits1 != hits0+1 {
				t.Error("the warm session missed: the failure flushed its caches")
			}
			if estAfter != estBefore {
				t.Errorf("warm estimate %v after the failure, want %v", estAfter.Seconds, estBefore.Seconds)
			}
		})
	}
}

// TestSnapshotIdentity: readers share one Physical between mutators, and
// each of the six mutators publishes a new one.
func TestSnapshotIdentity(t *testing.T) {
	e := testNREF(t, SystemA())
	row := e.Heap("source").Get(0).Clone()
	mutators := []struct {
		name string
		run  func() error
	}{
		{"ApplyConfig", func() error { _, err := e.ApplyConfig(PConfiguration(e)); return err }},
		{"Transition", func() error { _, err := e.Transition(OneColumnConfiguration(e)); return err }},
		{"Load", func() error { return e.Load("source", []val.Row{row}) }},
		{"InsertRows", func() error { _, err := e.InsertRows("source", []val.Row{row}); return err }},
		{"CollectStats", func() error { e.CollectStats(); return nil }},
		{"NoteTopologyChange", func() error { e.NoteTopologyChange(); return nil }},
	}
	for _, m := range mutators {
		before := e.Physical()
		if e.Physical() != before {
			t.Fatalf("before %s: two reads saw different snapshots", m.name)
		}
		if err := m.run(); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if e.Physical() == before {
			t.Errorf("%s did not publish a new snapshot", m.name)
		}
	}
}
