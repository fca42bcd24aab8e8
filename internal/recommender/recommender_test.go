package recommender

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/workload"
)

func nrefEngine(t *testing.T, prof engine.Profile) *engine.Engine {
	t.Helper()
	e := engine.New(catalog.NREF(), 0.0001, prof)
	if err := datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: 0.0001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	if _, err := e.ApplyConfig(engine.PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

// smallWorkload samples a handful of NREF2J queries.
func smallWorkload(t *testing.T, e *engine.Engine, n int) []string {
	t.Helper()
	fam := workload.NREF2J(e.Schema, e, workload.DefaultOptions())
	fam = fam.Sample(n, func(s string) float64 { return float64(len(s)) }, 3)
	return fam.SQLs()
}

// budgetFor returns the 1C-minus-P budget the paper uses (§3.2.3).
func budgetFor(t *testing.T, e *engine.Engine) int64 {
	t.Helper()
	w := e.NewWhatIf()
	return w.EstimateSize(engine.OneColumnConfiguration(e))
}

func TestRecommendWithinBudget(t *testing.T) {
	e := nrefEngine(t, engine.SystemB())
	queries := smallWorkload(t, e, 12)
	budget := budgetFor(t, e)
	r := New(e, SystemB())
	rec, err := r.Recommend(queries, budget)
	if err != nil {
		t.Fatal(err)
	}
	// The recommendation must respect the budget (by its own estimates,
	// as in the paper: ET uses estimated storage).
	w := e.NewWhatIf()
	if size := w.EstimateSize(rec); size > budget {
		t.Errorf("recommendation size %d exceeds budget %d", size, budget)
	}
	// It must include the auto primary-key indexes.
	var autos int
	for _, d := range rec.Indexes {
		if d.Auto {
			autos++
		}
	}
	if autos == 0 {
		t.Error("recommendation lost the primary-key indexes")
	}
	// And must actually build.
	if _, err := e.ApplyConfig(rec); err != nil {
		t.Fatalf("recommended configuration failed to build: %v", err)
	}
}

func TestRecommendationImprovesEstimates(t *testing.T) {
	e := nrefEngine(t, engine.SystemB())
	queries := smallWorkload(t, e, 12)
	r := New(e, SystemB())
	rec, err := r.Recommend(queries, budgetFor(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Indexes) == 0 {
		t.Fatal("empty recommendation")
	}
	// Total what-if cost must improve over P.
	w := e.NewWhatIf()
	var totP, totR float64
	for _, qs := range queries {
		q, err := e.AnalyzeSQL(qs)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := w.Estimate(q, engine.PConfiguration(e))
		if err != nil {
			t.Fatal(err)
		}
		mr, err := w.Estimate(q, rec)
		if err != nil {
			t.Fatal(err)
		}
		totP += mp.Seconds
		totR += mr.Seconds
	}
	if totR >= totP {
		t.Errorf("recommendation worsens estimated total: P=%.0f R=%.0f", totP, totR)
	}
}

func TestSystemACapitulates(t *testing.T) {
	e := nrefEngine(t, engine.SystemA())
	fam := workload.NREF3J(e.Schema, e, workload.DefaultOptions())
	fam = fam.Sample(100, func(s string) float64 { return float64(len(s)) }, 3)
	r := New(e, SystemA())
	_, err := r.Recommend(fam.SQLs(), budgetFor(t, e))
	if !errors.Is(err, ErrTooComplex) {
		t.Fatalf("System A should capitulate on NREF3J, got err=%v", err)
	}
}

func TestSystemAHandlesNREF2J(t *testing.T) {
	e := nrefEngine(t, engine.SystemA())
	fam := workload.NREF2J(e.Schema, e, workload.DefaultOptions())
	fam = fam.Sample(100, func(s string) float64 { return float64(len(s)) }, 3)
	r := New(e, SystemA())
	rec, err := r.Recommend(fam.SQLs(), budgetFor(t, e))
	if err != nil {
		t.Fatalf("System A should handle NREF2J: %v", err)
	}
	if len(rec.Indexes) == 0 {
		t.Error("System A produced an empty recommendation")
	}
}

func TestMaxWidthRespected(t *testing.T) {
	e := nrefEngine(t, engine.SystemB())
	r := New(e, SystemB())
	rec, err := r.Recommend(smallWorkload(t, e, 10), budgetFor(t, e))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rec.Indexes {
		if len(d.Columns) > 4 {
			t.Errorf("index %s wider than 4 columns", d.Name())
		}
	}
}

func TestViewCandidatesOnlyForC(t *testing.T) {
	e := nrefEngine(t, engine.SystemB())
	queries := smallWorkload(t, e, 10)
	recB, err := New(e, SystemB()).Recommend(queries, budgetFor(t, e))
	if err != nil {
		t.Fatal(err)
	}
	if len(recB.Views) != 0 {
		t.Errorf("System B must not recommend views, got %d", len(recB.Views))
	}
}

func TestPermutations(t *testing.T) {
	ps := permutations([]string{"b", "a"}, 2)
	// 2 singles + 2 ordered pairs.
	if len(ps) != 4 {
		t.Fatalf("permutations = %v", ps)
	}
	ps = permutations([]string{"a", "b", "c"}, 2)
	if len(ps) != 3+6 {
		t.Fatalf("len = %d, want 9", len(ps))
	}
}

func TestZeroBudget(t *testing.T) {
	e := nrefEngine(t, engine.SystemB())
	rec, err := New(e, SystemB()).Recommend(smallWorkload(t, e, 6), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rec.Indexes {
		if !d.Auto {
			t.Errorf("zero budget must yield only auto indexes, got %s", d.Name())
		}
	}
	_ = rec
}

func TestCandidateBundles(t *testing.T) {
	cfgC := conf.Configuration{Name: "x"}
	c := &candidate{
		key:     "view+ix:test",
		views:   []conf.ViewDef{{Name: "v1", SQL: "SELECT nref_id FROM protein", BaseTables: []string{"protein"}}},
		indexes: []conf.IndexDef{{Table: "v1", Columns: []string{"c0"}}},
	}
	out := c.applyTo(cfgC)
	if !out.HasView("v1") || !out.HasIndex(conf.IndexDef{Table: "v1", Columns: []string{"c0"}}) {
		t.Error("applyTo must add both the view and its index")
	}
	if !c.inConfig(out) {
		t.Error("inConfig should see the bundle")
	}
	if c.inConfig(cfgC) {
		t.Error("inConfig false positive")
	}
}

func tpchEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(catalog.TPCH(), 0.0001, engine.SystemC())
	if err := datagen.GenerateTPCH(e, datagen.TPCHOptions{ScaleFactor: 0.0001, Seed: 42, Skew: true, ZipfS: 1}); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	if _, err := e.ApplyConfig(engine.PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSystemCBuildsOnTPCH exercises the C profile end to end: view
// candidates, size estimation, greedy selection, and a real build of the
// outcome.
func TestSystemCBuildsOnTPCH(t *testing.T) {
	e := tpchEngine(t)
	queries := []string{
		`SELECT l.l_shipmode, COUNT(*) FROM orders o, lineitem l
		 WHERE o.o_orderkey = l.l_orderkey AND o.o_orderpriority = '1-URGENT' GROUP BY l.l_shipmode`,
		`SELECT l.l_returnflag, COUNT(*) FROM orders o, lineitem l
		 WHERE o.o_orderkey = l.l_orderkey AND o.o_orderstatus = 'F' GROUP BY l.l_returnflag`,
		`SELECT p.p_brand, COUNT(*) FROM part p, partsupp ps
		 WHERE p.p_partkey = ps.ps_partkey AND p.p_size = 7 GROUP BY p.p_brand`,
	}
	w := e.NewWhatIf()
	budget := w.EstimateSize(engine.OneColumnConfiguration(e))
	rec, err := New(e, SystemC()).Recommend(queries, budget)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyConfig(rec); err != nil {
		t.Fatalf("recommended configuration failed to build: %v", err)
	}
	for _, q := range queries {
		if _, _, err := e.Run(q, 0); err != nil {
			t.Fatalf("query failed under recommendation: %v", err)
		}
	}
	// The C profile considered view candidates (whether or not any view
	// survived the greedy selection, candidate generation must offer them).
	q0, err := e.AnalyzeSQL(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	// Enumeration changes nothing: asked again on the same query, it
	// proposes the same candidates, and the query is left as it was.
	sqlBefore := q0.SQL()
	r := New(e, SystemC())
	views := r.viewCandidates(q0, relevantColumns(q0))
	if again := r.viewCandidates(q0, relevantColumns(q0)); !reflect.DeepEqual(views, again) {
		t.Errorf("viewCandidates differs on a second call:\n%v\nvs\n%v", views, again)
	}
	cands := r.generate(q0)
	hasViewCand := false
	for _, c := range cands {
		if len(c.views) > 0 {
			hasViewCand = true
			break
		}
	}
	if !hasViewCand {
		t.Error("System C generated no view candidates")
	}
	if again := r.generate(q0); !reflect.DeepEqual(cands, again) {
		t.Errorf("generate differs on a second call:\n%v\nvs\n%v", cands, again)
	}
	if got := q0.SQL(); got != sqlBefore {
		t.Errorf("candidate generation changed the query:\n%s\nwas\n%s", got, sqlBefore)
	}
}
