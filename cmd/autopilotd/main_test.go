package main

import (
	"os"
	"path/filepath"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestGoldenDriftArtifact regenerates artifacts/autopilot_drift.txt with
// the documented command line (DESIGN.md §9) and requires byte-identical
// output. The one departure is -addr: an ephemeral loopback port instead
// of "", so run's shutdown ordering — loop drained, artifact written,
// metrics listener closed last — is exercised as well.
func TestGoldenDriftArtifact(t *testing.T) {
	if raceEnabled {
		t.Skip("full-scale golden regeneration is too slow under -race")
	}
	if testing.Short() {
		t.Skip("golden regeneration takes ~15s; skipped with -short")
	}
	out := filepath.Join(t.TempDir(), "autopilot_drift.txt")
	opts, addr, compare, outFile := parseArgs([]string{"-windows", "5", "-drift", "-sync", "-compare", "-addr", "127.0.0.1:0", "-o", out})
	if err := run(opts, addr, compare, outFile); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "artifacts", "autopilot_drift.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("autopilot_drift.txt drifted from the checked-in artifact:\n--- got\n%s--- want\n%s", got, want)
	}
}
