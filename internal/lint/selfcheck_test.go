package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot walks up from the test's working directory to go.mod.
func repoRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the self-run gate: the repository must pass its own
// analyzers with zero findings. A failure here means a real invariant
// violation landed (fix the code) or an analyzer regressed into a false
// positive (fix the analyzer) — never "add a directive to make CI green".
func TestRepoIsClean(t *testing.T) {
	m, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("conflint found %d violation(s) in the repository", len(findings))
	}
}

// killRow is one only-this-rule row of the kill table (DESIGN §10): a
// bug seeded into real repository code as string edits, the rule that
// alone catches it, and fragments its finding (message or witness) must
// contain.
type killRow struct {
	id    string
	edits [][3]string // file, old, new
	rule  string
	want  []string
}

var killTable = []killRow{
	{"L1", [][3]string{{"internal/shard/cluster.go",
		"func (c *Cluster) Stats() Stats {\n\tc.statMu.Lock()\n\tdefer c.statMu.Unlock()\n",
		"func (c *Cluster) Stats() Stats {\n"}},
		"lock", []string{"exported method Stats reads guarded field c.st without holding c.statMu"}},
	{"LO1", [][3]string{{"internal/shard/cluster.go",
		"\ttop := c.top.Load()\n",
		"\tc.statMu.Lock()\n\tc.reshardMu.Lock()\n\ttop := c.top.Load()\n\tc.reshardMu.Unlock()\n\tc.statMu.Unlock()\n"}},
		"lockorder", []string{
			"lock-order cycle internal/shard.Cluster.reshardMu -> internal/shard.Cluster.statMu -> internal/shard.Cluster.reshardMu",
			"internal/shard.Cluster.PartitionPhysical acquires internal/shard.Cluster.reshardMu",
			"internal/shard.Cluster.Reshard acquires internal/shard.Cluster.statMu"}},
	{"E1", [][3]string{{"internal/shard/cluster.go",
		"\t\t\tif err := sh.Load(tp.name, tp.buckets[i]); err != nil {\n\t\t\t\treturn err\n\t\t\t}\n",
		"\t\t\tsh.Load(tp.name, tp.buckets[i])\n"}},
		"errcheck", []string{"result of sh.Load is an error and this statement discards it"}},
	{"G1", [][3]string{{"internal/gateway/tuner.go",
		"\t// conflint:worker lifecycle=trigger retune loop; worker.stop closes trigger and waits on done\n", ""}},
		"goleak", []string{"goroutine may leak: it ranges over channel tn.w.trigger"}},
	{"SP2", [][3]string{
		{"internal/gateway/tuner.go",
			"func (w *worker) signal() {\n\tselect {\n\tcase w.trigger <- struct{}{}:\n\tdefault:\n\t}\n}",
			"func (w *worker) signal() {\n\tw.trigger <- struct{}{}\n}"},
		{"internal/gateway/autoscaler.go",
			"\t\tas.windows.Add(1)\n",
			"\t\tas.windows.Add(1)\n\t\tas.g.tunerP.Load().w.signal()\n"}},
		"shutdownpath", []string{
			"worker (lifecycle=trigger) sends on w.trigger with no lifecycle guard",
			"worker spawned (lifecycle=trigger) at internal/gateway/autoscaler.go",
			"calls internal/gateway.autoscaler.drain",
			"calls internal/gateway.worker.signal",
			"sends on w.trigger with no lifecycle guard at internal/gateway/tuner.go"}},
	{"D2", [][3]string{{"internal/gateway/metrics.go", "\tsort.Strings(keys)\n", ""}},
		"determinism", []string{"map iteration collects into a slice that sortedKeys never sorts"}},
	{"P1", [][3]string{{"internal/recommender/loop.go",
		"\tcase violated && l.tuned == nil:\n",
		"\tcase violated && l.tuned == nil:\n\t\tl.tuned = shares(mix)\n"}},
		"pure", []string{
			"internal/recommender.Loop.Decide is declared conflint:pure but has a side effect: writes l.tuned",
			"internal/recommender.Loop.Decide writes l.tuned"}},
}

// TestKillTable re-seeds each only-this-rule row of the kill table into
// a copy of the module's sources and requires the row's rule to fire
// with its witness: a rule that stops catching its row has stopped
// earning its place.
func TestKillTable(t *testing.T) {
	root, dir := repoRoot(t), t.TempDir()
	// Copy what LoadModule reads: go.mod and the non-test Go files.
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || d.IsDir() || rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range killTable {
		t.Run(row.id, func(t *testing.T) {
			for _, e := range row.edits {
				path := filepath.Join(dir, e[0])
				orig, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := strings.Count(string(orig), e[1]); n != 1 {
					t.Fatalf("%s: the seed's text occurs %d times in %s; re-derive the row", row.id, n, e[0])
				}
				seeded := strings.Replace(string(orig), e[1], e[2], 1)
				if err := os.WriteFile(path, []byte(seeded), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := os.WriteFile(path, orig, 0o644); err != nil {
						t.Error(err)
					}
				})
			}
			m, err := LoadModule(dir)
			if err != nil {
				t.Fatal(err)
			}
			fs := Run(m, All())
			for _, f := range fs {
				text := f.Message + "\n" + strings.Join(f.Witness, "\n")
				ok := f.Rule == row.rule
				for _, w := range row.want {
					ok = ok && strings.Contains(text, w)
				}
				if ok {
					return
				}
			}
			t.Errorf("%s: no [%s] finding containing %q; got:\n%s", row.id, row.rule, row.want, RenderText(m, fs))
		})
	}
}
