package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// analyzedTexts returns the texts the engine's memo of analyzed queries
// holds, checking that its two indexes agree.
func analyzedTexts(t *testing.T, e *Engine) int {
	t.Helper()
	m := e.analyses
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.byText) != m.lru.Len() || len(m.byQuery) != m.lru.Len() {
		t.Fatalf("memo of analyzed queries: %d by text, %d by query, %d listed", len(m.byText), len(m.byQuery), m.lru.Len())
	}
	return m.lru.Len()
}

// TestAnalyzeSQLSharesOneQuery: a text analyzed twice, on the engine or
// on a fork of it, is one query.
func TestAnalyzeSQLSharesOneQuery(t *testing.T) {
	e := testNREF(t, SystemA())
	q, err := e.AnalyzeSQL(selectiveQ)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*Engine{e, e.Fork()} {
		again, err := eng.AnalyzeSQL(selectiveQ)
		if err != nil {
			t.Fatal(err)
		}
		if again != q {
			t.Error("analyzing one text again returned another query")
		}
	}
	if _, err := e.AnalyzeSQL("SELECT nope FROM protein"); err == nil {
		t.Error("a text that does not bind analyzed without an error")
	}
	if n := analyzedTexts(t, e); n != 1 {
		t.Errorf("the memo holds %d texts, want the one that analyzed", n)
	}
}

// TestAnalyzedQueriesAreBounded analyzes more distinct texts than the
// memo holds, and estimates each on one session under one snapshot: the
// memo stays at its capacity, the session's fingerprints too, and an
// evicted text analyzes again to the same SQL.
func TestAnalyzedQueriesAreBounded(t *testing.T) {
	e := testNREF(t, SystemA())
	text := func(i int) string { return fmt.Sprintf("SELECT p_name FROM protein WHERE length < %d", i) }
	first, err := e.AnalyzeSQL(text(0))
	if err != nil {
		t.Fatal(err)
	}
	w := e.NewWhatIf()
	p := PConfiguration(e)
	for i := range analyzedCap + 100 {
		q, err := e.AnalyzeSQL(text(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Estimate(q, p); err != nil {
			t.Fatal(err)
		}
		if n := analyzedTexts(t, e); n > analyzedCap {
			t.Fatalf("after %d texts the memo holds %d, past its capacity %d", i+1, n, analyzedCap)
		}
	}
	if fps, _ := QueryState(w); fps > analyzedCap {
		t.Errorf("the session holds %d fingerprints, past the capacity %d", fps, analyzedCap)
	}
	again, err := e.AnalyzeSQL(text(0))
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("the least recently used text was not evicted")
	}
	if again.SQL() != first.SQL() {
		t.Errorf("an evicted text analyzes again to %q, first to %q", again.SQL(), first.SQL())
	}
}

// TestCollectStatsDropsStaleViews: once CollectStats replaces the
// statistics a view's build was keyed on, the memo holds no view entry
// keyed on them, and the next transition to the view builds it again,
// billed as the first build.
func TestCollectStatsDropsStaleViews(t *testing.T) {
	e := tpchEngine(t)
	p, r := PConfiguration(e), indexedView(e)
	first, err := e.Transition(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.built.counts(); n.heldViews != 1 {
		t.Fatalf("P → R left %d views in the memo, want 1", n.heldViews)
	}
	var replaced []*stats.TableStats
	for _, tab := range e.Schema.Tables() {
		replaced = append(replaced, e.TableStats(tab.Name))
	}
	e.CollectStats()
	m := e.built
	m.mu.Lock()
	for _, he := range m.heaps {
		for _, en := range he.entries {
			if slices.ContainsFunc(en.pins, func(ts *stats.TableStats) bool { return slices.Contains(replaced, ts) }) {
				t.Errorf("after CollectStats the memo lists a view entry keyed on replaced statistics")
			}
		}
	}
	m.mu.Unlock()
	if n := e.built.counts(); n.heldViews != 0 {
		t.Errorf("after CollectStats the memo holds %d views, want none", n.heldViews)
	}
	if _, err := e.Transition(p); err != nil {
		t.Fatal(err)
	}
	builds := e.built.counts().builds
	again, err := e.Transition(r)
	if err != nil {
		t.Fatal(err)
	}
	if n := e.built.counts(); n.builds != builds+2 {
		t.Errorf("P → R after CollectStats ran %d builds, want the view and its index (2)", n.builds-builds)
	}
	if again.ViewSeconds != first.ViewSeconds || again.BuildSeconds != first.BuildSeconds {
		t.Errorf("the rebuilt view bills %+v, the first build %+v", again, first)
	}
}
