package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lint"
)

// TestBaselineRoundTrip writes a baseline from findings and reads it
// back: entries are deduped, sorted, and keyed rule+package+symbol —
// never line numbers, so a moved finding still matches.
func TestBaselineRoundTrip(t *testing.T) {
	fs := []lint.Finding{
		{Rule: "errcheck", Package: "optimizer", Symbol: "search.indexJoinCands", Line: 444},
		{Rule: "goleak", Package: "main", Symbol: "main", Line: 207},
		{Rule: "errcheck", Package: "optimizer", Symbol: "search.indexJoinCands", Line: 450}, // same symbol, other line
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := lint.WriteBaseline(path, fs); err != nil {
		t.Fatal(err)
	}
	entries := lint.BaselineEntries(fs)
	if len(entries) != 2 {
		t.Fatalf("want 2 deduped entries, got %d: %v", len(entries), entries)
	}
	if entries[0].Rule != "errcheck" || entries[1].Rule != "goleak" {
		t.Errorf("entries not sorted by rule: %v", entries)
	}

	base, err := lint.ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	// A finding at a new line with the same symbol still matches.
	if !base[lint.BaselineKey("errcheck", "optimizer", "search.indexJoinCands")] {
		t.Error("baseline lost the errcheck entry")
	}
	if !base[lint.BaselineKey("goleak", "main", "main")] {
		t.Error("baseline lost the goleak entry")
	}
	if base[lint.BaselineKey("errcheck", "optimizer", "otherFunc")] {
		t.Error("baseline matches a symbol it does not contain")
	}
}

func TestReadBaselineRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := lint.ReadBaseline(path); err == nil {
		t.Error("want an error for malformed baseline JSON")
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		rel, pat string
		want     bool
	}{
		{"internal/engine", "./...", true},
		{"internal/engine", "internal/...", true},
		{"internal/engine", "./internal/engine", true},
		{"internal/engine", "internal/eng", false},
		{"cmd/conflint", "internal/...", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.rel, c.pat); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.rel, c.pat, got, c.want)
		}
	}
}

// TestScopeRuleKeys pins the bench-section scoping contract: per-rule
// maps only carry keys for selected rules, and the shared "effects"
// fixpoint is attributed to its consumer (pure) — present exactly when
// it is selected.
func TestScopeRuleKeys(t *testing.T) {
	src := map[string]int{"lockorder": 2, "effects": 5, "shutdownpath": 1}

	pure, err := lint.ByNames("pure")
	if err != nil {
		t.Fatal(err)
	}
	got := scopeRuleKeys(src, pure)
	if len(got) != 1 || got["effects"] != 5 {
		t.Errorf("scope(pure) = %v; want only effects=5", got)
	}

	lockorder, err := lint.ByNames("lockorder")
	if err != nil {
		t.Fatal(err)
	}
	got = scopeRuleKeys(src, lockorder)
	if len(got) != 1 || got["lockorder"] != 2 {
		t.Errorf("scope(lockorder) = %v; want only lockorder=2", got)
	}

	all, err := lint.ByNames("")
	if err != nil {
		t.Fatal(err)
	}
	if got = scopeRuleKeys(src, all); len(got) != len(src) {
		t.Errorf("scope(all) = %v; want every key kept", got)
	}
}
