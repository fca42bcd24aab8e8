package bench

import (
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
)

// tinyLab builds a fast lab for smoke tests.
func tinyLab() *Lab {
	l := NewLab(0.0001, 42)
	l.WorkloadSize = 12
	return l
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 20 {
		t.Fatalf("experiments = %d", len(exps))
	}
	seen := make(map[string]bool)
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("fig3"); !ok {
		t.Error("Find(fig3) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) should fail")
	}
}

func TestLabCachesRuns(t *testing.T) {
	l := tinyLab()
	ms1, err := l.Run("A", "NREF2J", "P")
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := l.Run("A", "NREF2J", "P")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms1) != len(ms2) {
		t.Fatal("cached run differs in length")
	}
	for i := range ms1 {
		if ms1[i].Seconds != ms2[i].Seconds {
			t.Fatal("cached run differs")
		}
	}
}

func TestFig3Smoke(t *testing.T) {
	l := tinyLab()
	exp, _ := Find("fig3")
	out, err := exp.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"P", "1C", "R", "median", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Smoke(t *testing.T) {
	l := tinyLab()
	exp, _ := Find("table1")
	out, err := exp.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"A NREF P", "C SkTH 1C", "Size (GB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
	// 1C must be bigger than P in every block.
	for _, c := range []struct{ sys, db string }{{"A", DBNref}, {"B", DBNref}, {"C", DBSkTH}, {"C", DBUnTH}} {
		p, err := l.BuildReport(c.sys, c.db, "P")
		if err != nil {
			t.Fatal(err)
		}
		one, err := l.BuildReport(c.sys, c.db, "1C")
		if err != nil {
			t.Fatal(err)
		}
		if one.Bytes <= p.Bytes {
			t.Errorf("%s %s: 1C is %d bytes, P %d", c.sys, c.db, one.Bytes, p.Bytes)
		}
	}
}

// TestLabEngineServesP: running a workload under another configuration
// leaves the engine Engine hands out in P.
func TestLabEngineServesP(t *testing.T) {
	l := tinyLab()
	if _, err := l.Run("A", "NREF2J", "1C"); err != nil {
		t.Fatal(err)
	}
	e := l.Engine("A", DBNref)
	var got, want []string
	for _, ixs := range e.Physical().Indexes {
		for _, ix := range ixs {
			got = append(got, ix.Name)
		}
	}
	for _, d := range engine.PConfiguration(e).Indexes {
		want = append(want, d.Name())
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Engine serves indexes %v after a 1C run, want P's %v", got, want)
	}
}

// TestLabConcurrentRuns runs three configurations of one cell at once on
// one lab: each must measure what a sequential run on a fresh lab does.
func TestLabConcurrentRuns(t *testing.T) {
	names := []string{"P", "1C", "R:NREF2J"}
	l := tinyLab()
	got := make([][]core.Measure, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, cn := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = l.Run("A", "NREF2J", cn)
		}()
	}
	wg.Wait()
	seq := tinyLab()
	for i, cn := range names {
		want, err := seq.Run("A", "NREF2J", cn)
		if err != nil || errs[i] != nil {
			t.Fatalf("%s: sequential error %v, concurrent %v", cn, err, errs[i])
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("%s: concurrent measures differ from a sequential lab's", cn)
		}
	}
}

func TestBudgetMatchesPaperRule(t *testing.T) {
	l := tinyLab()
	b := l.Budget("A", DBNref)
	if b <= 0 {
		t.Fatal("budget must be positive")
	}
	// The budget is the estimated 1C-minus-P size; the actual 1C build
	// should land within a small factor.
	rep, err := l.BuildReport("A", DBNref, "1C")
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(b) / float64(rep.IndexBytes)
	if ratio < 0.25 || ratio > 4 {
		t.Errorf("budget %d vs actual 1C extra %d (ratio %.2f)", b, rep.IndexBytes, ratio)
	}
}

func TestRecommendationCapitulationIsCached(t *testing.T) {
	l := tinyLab()
	// NREF3J at 12 queries may or may not exceed A's limit; whatever the
	// outcome, it must be stable across calls.
	_, err1 := l.Recommendation("A", "NREF3J")
	_, err2 := l.Recommendation("A", "NREF3J")
	if (err1 == nil) != (err2 == nil) {
		t.Errorf("recommendation outcome unstable: %v vs %v", err1, err2)
	}
}

// BenchmarkFig6 regenerates Figure 6 (System B on NREF3J) at scale 0.0002
// with 30-query workloads, loading the lab included: the bytes/op proxy
// EXPERIMENTS cites for the reproduction's memory. `make bench` runs it
// once.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	l := NewLab(0.0002, 42)
	l.WorkloadSize = 30
	exp, _ := Find("fig6")
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(l); err != nil {
			b.Fatal(err)
		}
	}
}
