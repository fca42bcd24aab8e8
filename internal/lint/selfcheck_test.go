package lint

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
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
		"\t// conflint:worker retune loop; worker.stop closes trigger and waits on done\n", ""}},
		"goleak", []string{"goroutine may leak: it ranges over channel tn.w.trigger"}},
	{"L2", [][3]string{{"internal/gateway/tenant.go",
		"func (t *tenantState) noteAdmitted(family string) {\n\tt.mu.Lock()\n\tt.admitted++\n\tt.mix[family]++\n\tt.mu.Unlock()\n}",
		"func (t *tenantState) noteAdmitted(family string) {\n\tt.admitted++\n\tt.mix[family]++\n}"}},
		"lock", []string{
			"internal/gateway.Gateway.admit calls internal/gateway.tenantState.noteAdmitted, which needs internal/gateway.tenantState.mu held",
			"internal/gateway.Gateway.admit calls internal/gateway.tenantState.noteAdmitted at internal/gateway/admission.go",
			"internal/gateway.tenantState.noteAdmitted writes t.admitted unlocked at internal/gateway/tenant.go"}},
	{"D2", [][3]string{
		{"internal/gateway/metrics.go", "\t\"sort\"\n", ""},
		{"internal/gateway/metrics.go", "\tsort.Strings(keys)\n", ""}},
		"determinism", []string{"map iteration collects into a slice that sortedKeys never sorts"}},
	{"DT2", [][3]string{
		{"internal/engine/transition.go", "\t\"strings\"\n\n", "\t\"strings\"\n\t\"time\"\n\n"},
		{"internal/engine/transition.go",
			"(BuildReport, error) {\n\tnext.collectStats(false)\n",
			"(rep BuildReport, err error) {\n\tstart := time.Now()\n\tdefer func() { rep.BuildSeconds += time.Since(start).Seconds() }()\n\tnext.collectStats(false)\n"},
		{"internal/engine/transition.go", "\trep := BuildReport{Dropped:", "\trep = BuildReport{Dropped:"}},
		"determinism", []string{"time.Since in package engine"}},
}

// TestKillTable re-seeds each only-this-rule row of the kill table into
// a copy of the module's sources and requires the seeded packages to
// build and the row's rule to fire with its witness: a rule that stops
// catching its row has stopped earning its place, and a seed the compiler
// rejects is a row no rule needs.
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
			buildSeeded(t, root, dir, row.edits)
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

// buildSeeded builds the packages a row's edits touch, with the seeded
// files from dir laid over the module at root (go build -overlay), so the
// build cache serves every package the seed leaves alone.
func buildSeeded(t *testing.T, root, dir string, edits [][3]string) {
	t.Helper()
	replace := map[string]string{}
	var pkgs []string
	for _, e := range edits {
		replace[filepath.Join(root, e[0])] = filepath.Join(dir, e[0])
		if pkg := "./" + filepath.ToSlash(filepath.Dir(e[0])); !slices.Contains(pkgs, pkg) {
			pkgs = append(pkgs, pkg)
		}
	}
	overlay, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "overlay.json")
	if err := os.WriteFile(path, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), append([]string{"build", "-overlay", path}, pkgs...)...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("the seeded %s does not build: %v\n%s", strings.Join(pkgs, " "), err, out)
	}
}
