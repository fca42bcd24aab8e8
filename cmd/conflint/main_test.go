package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// inModule makes a one-package module out of src in a temp directory and
// runs the test from inside it (run finds the module from the working
// directory).
func inModule(t *testing.T, src []byte) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range map[string][]byte{"go.mod": []byte("module fixture\n"), "p.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExitCodes pins the command's contract: 0 clean, 1 findings (each
// with its position line and fix: hint), 2 usage error — and a flag this
// command no longer has is a usage error, so a stale invocation fails
// loudly instead of linting without the suppression it asked for.
func TestExitCodes(t *testing.T) {
	errcheck, err := os.ReadFile(filepath.Join("..", "..", "internal", "lint", "testdata", "src", "errcheck", "errcheck.go"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		src    []byte
		args   []string
		code   int
		stdout []string
		stderr string
	}{
		{"clean", []byte("package p\n\nfunc F() {}\n"), []string{"./..."}, 0, nil, "5 rules, 0 finding(s)"},
		{"findings", errcheck, nil, 1,
			[]string{"p.go:15:2: [errcheck] result of mayFail is an error", "        fix: handle the error"}, "5 finding(s)"},
		{"unknown rule", errcheck, []string{"-rules", "nosuchrule"}, 2, nil, `unknown rule "nosuchrule"`},
		{"deleted -baseline", errcheck, []string{"-baseline", "x"}, 2, nil, "flag provided but not defined: -baseline"},
		{"deleted -fix", errcheck, []string{"-fix"}, 2, nil, "flag provided but not defined: -fix"},
		{"deleted -sarif", errcheck, []string{"-sarif", "x"}, 2, nil, "flag provided but not defined: -sarif"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inModule(t, c.src)
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, c.code, &stdout, &stderr)
			}
			for _, want := range c.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, &stdout)
				}
			}
			if len(c.stdout) == 0 && stdout.Len() > 0 {
				t.Errorf("want empty stdout, got:\n%s", &stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr missing %q:\n%s", c.stderr, &stderr)
			}
		})
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
