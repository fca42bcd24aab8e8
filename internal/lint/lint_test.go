package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts golden expectations from fixture sources. Each
// `// want "regexp"` names a finding that must be reported on its line;
// every reported finding must be named by a want.
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type wantSpec struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

func loadWants(t *testing.T, m *Module) []*wantSpec {
	t.Helper()
	var out []*wantSpec
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			src, err := os.ReadFile(f.Path)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(src), "\n") {
				sm := wantRe.FindStringSubmatch(line)
				if sm == nil {
					continue
				}
				re, err := regexp.Compile(sm[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", f.Path, i+1, sm[1], err)
				}
				out = append(out, &wantSpec{file: f.Path, line: i + 1, pattern: re})
			}
		}
	}
	return out
}

// TestFixtures runs ALL analyzers over each fixture package and requires
// an exact, bidirectional match between findings and want expectations —
// running every rule on every fixture also proves the rules do not
// false-positive on each other's material.
func TestFixtures(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() || d.Name() == "ignore" || d.Name() == "goleakbare" {
			continue // these fixtures pin line numbers in their own tests
		}
		t.Run(d.Name(), func(t *testing.T) {
			m, err := LoadFixture(filepath.Join("testdata", "src", d.Name()))
			if err != nil {
				t.Fatal(err)
			}
			findings := Run(m, All())
			wants := loadWants(t, m)
			for _, f := range findings {
				ok := false
				for _, w := range wants {
					if w.file == f.File && w.line == f.Line && !w.matched && w.pattern.MatchString(f.Message) {
						w.matched = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a finding matching %q, got none",
						w.file, w.line, w.pattern)
				}
			}
		})
	}
}

// TestBareIgnoreDirective checks that a reason-less directive is a
// finding and suppresses nothing.
func TestBareIgnoreDirective(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 2 {
		t.Fatalf("want 2 findings (bare directive + unsuppressed discard), got %d: %v", len(findings), findings)
	}
	if findings[0].Rule != "ignore" || findings[0].Line != 11 {
		t.Errorf("want [ignore] at line 11, got %s", findings[0])
	}
	if findings[1].Rule != "errcheck" || findings[1].Line != 12 {
		t.Errorf("want [errcheck] at line 12, got %s", findings[1])
	}
}

func TestByNames(t *testing.T) {
	as, err := ByNames("lock,errcheck")
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 || as[0].Name != "lock" || as[1].Name != "errcheck" {
		t.Errorf("ByNames(lock,errcheck) = %v", as)
	}
	if _, err := ByNames("nosuchrule"); err == nil {
		t.Error("ByNames(nosuchrule) should fail")
	}
	all, err := ByNames("")
	if err != nil || len(all) != 7 {
		t.Errorf("ByNames(\"\") = %d analyzers, err %v; want 7", len(all), err)
	}
	if _, err := ByNames("lock,lock"); err == nil || !strings.Contains(err.Error(), "duplicate rule") {
		t.Errorf("ByNames(lock,lock) = %v; want duplicate-rule error", err)
	}
	if _, err := ByNames("lock,,errcheck"); err == nil || !strings.Contains(err.Error(), "empty rule name") {
		t.Errorf("ByNames(lock,,errcheck) = %v; want empty-name error", err)
	}
	if _, err := ByNames("nosuchrule"); err == nil || !strings.Contains(err.Error(), "shutdownpath") {
		t.Errorf("ByNames(nosuchrule) = %v; want error listing known rules (incl. shutdownpath)", err)
	}
}

// TestRenderers pins the one output format on a fixture run: the
// position line with a module-relative path, and the fix: hint.
func TestRenderers(t *testing.T) {
	m, err := LoadFixture(filepath.Join("testdata", "src", "errcheck"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) == 0 {
		t.Fatal("errcheck fixture produced no findings")
	}
	text := RenderText(m, findings)
	if !strings.HasPrefix(text, "errcheck.go:15:2: [errcheck] ") || !strings.Contains(text, "        fix: ") {
		t.Errorf("text rendering missing pieces:\n%s", text)
	}
	if strings.Contains(text, m.Root) {
		t.Errorf("text rendering should print module-relative paths:\n%s", text)
	}
}

// TestStaleIgnore pins the stale-directive contract: a reasoned
// directive that suppresses a finding is silent, one that suppresses
// nothing is a finding — but only when the full rule set runs, since a
// subset cannot know what the directive was written for.
func TestStaleIgnore(t *testing.T) {
	const src = `package stale

import "os"

func touch() {
	_ = os.Remove("x") // conflint:ignore best-effort cleanup of a scratch file
}

// conflint:ignore written for code that moved away
func quiet() {}
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stale.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	findings := Run(m, All())
	if len(findings) != 1 || findings[0].Rule != "ignore" || findings[0].Line != 9 ||
		!strings.Contains(findings[0].Message, "suppresses nothing") {
		t.Fatalf("want exactly the stale-ignore finding at line 9, got %v", findings)
	}

	// Under a rule subset the gate is off: no stale reporting (and the
	// used directive still suppresses).
	m2, err := LoadFixture(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sub := Run(m2, []*Analyzer{ErrCheck()}); len(sub) != 0 {
		t.Fatalf("subset run should report nothing, got %v", sub)
	}
}
