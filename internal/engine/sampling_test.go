package engine_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/engine"
)

// TestSamplingKeepsNoAnalyses: stratifying a family prices every text of
// it, but only the sample is asked about again, so after Lab.Workload the
// memo of analyzed queries holds no more texts than the sample — and
// after a System B search over the sample, which derives no views, still
// no more.
func TestSamplingKeepsNoAnalyses(t *testing.T) {
	l := bench.NewLab(0.0001, 42)
	l.WorkloadSize = 12
	fam := l.Workload("B", "NREF2J")
	texts := func() int {
		_, n := engine.QueryState(l.Engine("B", bench.DBNref).NewWhatIf())
		return n
	}
	if n := texts(); n > len(fam.Queries) {
		t.Errorf("after sampling %d texts, the memo holds %d", len(fam.Queries), n)
	}
	if _, err := l.Recommendation("B", "NREF2J"); err != nil {
		t.Fatal(err)
	}
	if n := texts(); n > len(fam.Queries) {
		t.Errorf("after a search over %d sampled texts, the memo holds %d", len(fam.Queries), n)
	}
}
