package engine

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/conf"
	"repro/internal/datagen"
	"repro/internal/storage"
	"repro/internal/val"
)

// testNREF builds a small NREF engine, shared across tests in this file.
func testNREF(t *testing.T, profile Profile) *Engine {
	t.Helper()
	e := New(catalog.NREF(), 0.0001, profile)
	if err := datagen.GenerateNREF(e, datagen.NREFOptions{ScaleFactor: 0.0001, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	e.CollectStats()
	return e
}

// selectiveQ is a query whose constant matches a handful of rows — the
// kind of exploratory lookup where single-column indexes shine. (Example 1
// itself has percent-level selectivity at test scale, where a sequential
// scan is legitimately competitive; see DESIGN.md on the scale floor.)
const selectiveQ = `
SELECT t.taxon_id, COUNT(*)
FROM taxonomy t, organism o
WHERE t.nref_id = o.nref_id AND t.nref_id = 'NF0000041'
GROUP BY t.taxon_id`

// example1 is the paper's Example 1 query.
const example1 = `
SELECT t.lineage, COUNT(DISTINCT t2.nref_id)
FROM source s, taxonomy t, taxonomy t2
WHERE t.nref_id = s.nref_id AND t.lineage = t2.lineage
  AND s.p_name = 'Simian Virus 40'
GROUP BY t.lineage`

// testQueries exercise single tables, selections, ranges, self-joins,
// 2- and 3-way joins, IN subqueries and every aggregate.
var testQueries = []string{
	example1,
	selectiveQ,
	`SELECT taxon_id, COUNT(*) FROM taxonomy GROUP BY taxon_id`,
	`SELECT p_name, length FROM protein WHERE length < 100`,
	`SELECT nref_id FROM protein WHERE nref_id = 'NF0000041'`,
	`SELECT o.name, COUNT(*) FROM organism o, taxonomy t
	 WHERE o.taxon_id = t.taxon_id AND o.ordinal = 7 GROUP BY o.name`,
	`SELECT r.taxon_id, COUNT(*) FROM taxonomy r, organism s
	 WHERE r.nref_id = s.nref_id
	   AND r.nref_id IN (SELECT nref_id FROM taxonomy GROUP BY nref_id HAVING COUNT(*) < 4)
	   AND s.nref_id IN (SELECT nref_id FROM organism GROUP BY nref_id HAVING COUNT(*) < 4)
	 GROUP BY r.taxon_id`,
	`SELECT r1.taxon_id_2, r1.nref_id_1, COUNT(DISTINCT r2.nref_id_2)
	 FROM neighboring_seq r1, neighboring_seq r2, taxonomy s
	 WHERE r1.nref_id_1 = r2.nref_id_1 AND r1.nref_id_2 = s.nref_id AND s.taxon_id = 3
	 GROUP BY r1.taxon_id_2, r1.nref_id_1`,
	`SELECT source, MIN(taxon_id), MAX(taxon_id), SUM(p_id), AVG(p_id), COUNT(p_id)
	 FROM source GROUP BY source`,
	`SELECT length, COUNT(*) FROM protein WHERE length >= 900 GROUP BY length`,
	`SELECT i.taxon_id, COUNT(*) FROM identical_seq i, organism o
	 WHERE i.taxon_id = o.taxon_id AND o.ordinal < 5 GROUP BY i.taxon_id`,
}

// configsUnderTest returns P, 1C and a hand-written composite-index
// configuration, covering the main plan shapes.
func configsUnderTest(e *Engine) []conf.Configuration {
	comp := PConfiguration(e)
	comp.Name = "composite"
	comp.AddIndex(conf.IndexDef{Table: "taxonomy", Columns: []string{"nref_id", "taxon_id", "lineage"}})
	comp.AddIndex(conf.IndexDef{Table: "source", Columns: []string{"p_name", "nref_id"}})
	comp.AddIndex(conf.IndexDef{Table: "organism", Columns: []string{"ordinal"}})
	comp.AddIndex(conf.IndexDef{Table: "neighboring_seq", Columns: []string{"nref_id_1", "nref_id_2"}})
	return []conf.Configuration{PConfiguration(e), OneColumnConfiguration(e), comp}
}

// TestPlanEquivalence is the central correctness property: every
// configuration must produce identical results for every query, and those
// results must match an independent naive evaluator.
func TestPlanEquivalence(t *testing.T) {
	e := testNREF(t, SystemA())
	for qi, sqlText := range testQueries {
		q, err := e.AnalyzeSQL(sqlText)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		want := naiveEval(e, q)
		for _, cfg := range configsUnderTest(e) {
			if _, err := e.ApplyConfig(cfg); err != nil {
				t.Fatalf("apply %s: %v", cfg.Name, err)
			}
			res, _, err := e.Run(sqlText, 0)
			if err != nil {
				t.Fatalf("query %d on %s: %v", qi, cfg.Name, err)
			}
			if !rowsEqual(res.Rows, want) {
				p, _ := e.Prepare(sqlText)
				t.Errorf("query %d on %s: got %d rows, want %d\nplan:\n%s",
					qi, cfg.Name, len(res.Rows), len(want), p.Explain())
			}
		}
	}
}

func TestOneColumnBeatsP(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	// A selective lookup on a non-key column of the biggest table: find a
	// rare species name by scanning, so the test is robust to generator
	// tweaks.
	counts := make(map[string]int)
	e.Heap("taxonomy").Scan(nil, func(_ storage.RowID, r val.Row) bool {
		counts[r[3].Str]++
		return true
	})
	rare := ""
	for name, n := range counts {
		if n >= 1 && n <= 3 && (rare == "" || name < rare) {
			rare = name
		}
	}
	if rare == "" {
		t.Fatal("no rare species_name in generated data")
	}
	q := `SELECT taxon_id, COUNT(*) FROM taxonomy WHERE species_name = ` +
		val.String(rare).String() + ` GROUP BY taxon_id`
	_, mp, err := e.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyConfig(OneColumnConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	_, m1c, err := e.Run(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m1c.Seconds >= mp.Seconds {
		t.Fatalf("1C (%.2fs) should beat P (%.2fs)", m1c.Seconds, mp.Seconds)
	}
}

func TestTimeout(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	_, m, err := e.Run(example1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !m.TimedOut {
		t.Fatal("expected timeout under a microscopic limit")
	}
	if m.Seconds != 1e-6 {
		t.Fatalf("timeout measure should report the limit, got %v", m.Seconds)
	}
}

func TestEstimateSanity(t *testing.T) {
	e := testNREF(t, SystemB())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	for qi, sqlText := range testQueries {
		m, err := e.Estimate(sqlText)
		if err != nil {
			t.Fatalf("estimate %d: %v", qi, err)
		}
		if m.Seconds <= 0 {
			t.Errorf("query %d: nonpositive estimate %v", qi, m.Seconds)
		}
	}
}

func TestWhatIfConservatism(t *testing.T) {
	e := testNREF(t, SystemB())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	q, err := e.AnalyzeSQL(selectiveQ)
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWhatIf()
	oneC := OneColumnConfiguration(e)
	h1c, err := w.Estimate(q, oneC)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := w.Estimate(q, PConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	// The what-if estimator must still see 1C as an improvement over P...
	if h1c.Seconds >= hp.Seconds {
		t.Fatalf("H(1C)=%.2f should improve on H(P)=%.2f", h1c.Seconds, hp.Seconds)
	}
	// ...but, per the paper's Figure 10, conservatively: once 1C is built,
	// the same-configuration estimate E(1C) is lower than H(1C) was.
	if _, err := e.ApplyConfig(oneC); err != nil {
		t.Fatal(err)
	}
	e1c, err := e.Estimate(selectiveQ)
	if err != nil {
		t.Fatal(err)
	}
	// Tolerance: per-query fixed costs (index heights) are estimated
	// slightly differently for hypothetical trees.
	if e1c.Seconds > h1c.Seconds*1.1 {
		t.Errorf("E(1C)=%.2f should not exceed the conservative H(1C)=%.2f", e1c.Seconds, h1c.Seconds)
	}
}

func TestWhatIfSizeWithinActual(t *testing.T) {
	e := testNREF(t, SystemA())
	oneC := OneColumnConfiguration(e)
	w := e.NewWhatIf()
	est := w.EstimateSize(oneC)
	rep, err := e.ApplyConfig(oneC)
	if err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatal("size estimate must be positive")
	}
	ratio := float64(est) / float64(rep.IndexBytes)
	if ratio < 0.3 || ratio > 3 {
		t.Errorf("size estimate %d vs actual %d (ratio %.2f) outside 3x", est, rep.IndexBytes, ratio)
	}
}

func TestBuildReport(t *testing.T) {
	e := testNREF(t, SystemA())
	repP, err := e.ApplyConfig(PConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	rep1C, err := e.ApplyConfig(OneColumnConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	if rep1C.Bytes <= repP.Bytes {
		t.Errorf("1C (%d bytes) must be larger than P (%d bytes)", rep1C.Bytes, repP.Bytes)
	}
	if rep1C.BuildSeconds <= repP.BuildSeconds {
		t.Errorf("1C build time %.0fs must exceed P's %.0fs", rep1C.BuildSeconds, repP.BuildSeconds)
	}
	if repP.BuildSeconds <= 0 {
		t.Error("P build time must be positive")
	}
}

func TestInsertRows(t *testing.T) {
	e := testNREF(t, SystemA())
	if _, err := e.ApplyConfig(OneColumnConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	h := e.Heap("neighboring_seq")
	before := h.NumRows()
	row := h.Get(0).Clone()
	m, err := e.InsertRows("neighboring_seq", []val.Row{row})
	if err != nil {
		t.Fatal(err)
	}
	if h.NumRows() != before {
		t.Fatal("InsertRows grew a heap a reader was holding")
	}
	if e.Heap("neighboring_seq").NumRows() != before+1 {
		t.Fatal("row not inserted")
	}
	if m.Seconds <= 0 {
		t.Error("insert must cost simulated time")
	}
	// 1C has 11 indexes on neighboring_seq; inserting under P is cheaper.
	perRow1C := e.InsertCostPerRow("neighboring_seq")
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	perRowP := e.InsertCostPerRow("neighboring_seq")
	if perRow1C <= perRowP {
		t.Errorf("insert cost under 1C (%.4fs) must exceed P (%.4fs)", perRow1C, perRowP)
	}
}

func TestOneColumnConfigurationShape(t *testing.T) {
	e := testNREF(t, SystemA())
	c := OneColumnConfiguration(e)
	for _, d := range c.Indexes {
		if !d.Auto && len(d.Columns) != 1 {
			t.Errorf("1C contains a %d-column non-auto index %s", len(d.Columns), d.Name())
		}
	}
	// Every indexable column appears exactly once.
	seen := make(map[string]bool)
	for _, d := range c.Indexes {
		if d.Auto {
			continue
		}
		key := strings.ToLower(d.Table + "." + d.Columns[0])
		if seen[key] {
			t.Errorf("duplicate 1C index on %s", key)
		}
		seen[key] = true
	}
	// Expected: every indexable column, except those already covered by a
	// single-column primary-key index (protein.nref_id).
	want := 0
	for _, tab := range e.Schema.Tables() {
		for _, col := range tab.IndexableColumns() {
			if len(tab.PrimaryKey) == 1 && strings.EqualFold(tab.PrimaryKey[0], col) {
				continue
			}
			want++
		}
	}
	if len(seen) != want {
		t.Errorf("1C has %d single-column indexes, want %d", len(seen), want)
	}
}

func TestTransitionReusesStructures(t *testing.T) {
	e := testNREF(t, SystemA())
	oneC := OneColumnConfiguration(e)
	repFull, err := e.ApplyConfig(oneC)
	if err != nil {
		t.Fatal(err)
	}
	// Transitioning to the same configuration costs (almost) nothing.
	repSame, err := e.Transition(oneC)
	if err != nil {
		t.Fatal(err)
	}
	if repSame.BuildSeconds > repFull.BuildSeconds/100 {
		t.Errorf("no-op transition cost %.2fs vs full build %.2fs", repSame.BuildSeconds, repFull.BuildSeconds)
	}
	if repSame.IndexBytes != repFull.IndexBytes {
		t.Errorf("sizes differ: %d vs %d", repSame.IndexBytes, repFull.IndexBytes)
	}
	// Adding one index on top costs far less than the full build.
	plus := oneC.Clone()
	plus.AddIndex(conf.IndexDef{Table: "taxonomy", Columns: []string{"taxon_id", "lineage"}})
	repPlus, err := e.Transition(plus)
	if err != nil {
		t.Fatal(err)
	}
	if repPlus.BuildSeconds >= repFull.BuildSeconds {
		t.Errorf("incremental AT %.2fs should be below full rebuild %.2fs",
			repPlus.BuildSeconds, repFull.BuildSeconds)
	}
	// Dropping back to P is nearly free but must actually drop.
	repP, err := e.Transition(PConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	if repP.BuildSeconds > 1 {
		t.Errorf("drop-only transition cost %.2fs", repP.BuildSeconds)
	}
	if n := len(e.Indexes("taxonomy")); n != 1 {
		t.Errorf("taxonomy should keep only its PK index, has %d", n)
	}
	// Queries still run correctly after the incremental churn.
	if _, _, err := e.Run(selectiveQ, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateTransition(t *testing.T) {
	e := testNREF(t, SystemB())
	if _, err := e.ApplyConfig(PConfiguration(e)); err != nil {
		t.Fatal(err)
	}
	w := e.NewWhatIf()
	et, err := w.EstimateTransition(OneColumnConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	if et <= 0 {
		t.Fatal("ET must be positive")
	}
	rep, err := e.ApplyConfig(OneColumnConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	// ET should land within a small factor of AT (the actual build).
	ratio := et / rep.BuildSeconds
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("ET %.0fs vs AT %.0fs (ratio %.2f)", et, rep.BuildSeconds, ratio)
	}
	// Estimating a transition to the current configuration is free.
	et0, err := w.EstimateTransition(OneColumnConfiguration(e))
	if err != nil {
		t.Fatal(err)
	}
	if et0 != 0 {
		t.Errorf("no-op ET = %v", et0)
	}
}
