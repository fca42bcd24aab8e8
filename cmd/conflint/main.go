// Command conflint runs the repository's invariant analyzers (internal/lint)
// over the module and reports findings. It is wired into `make verify` via
// `make lint` and must exit clean on this repo.
//
// Usage:
//
//	conflint [-rules a,b] [-list-rules] [packages]
//
// Packages are directory patterns relative to the module root ("./...",
// "./internal/engine", "internal/autopilot/..."); the default is the whole
// module. Note the module is always parsed in full — cross-package rules
// like lockorder need the whole tree — and the patterns only select which
// packages' findings are reported.
//
// Each finding prints as `file:line:col: [rule] message`, followed by its
// witness path (interprocedural rules) and a `fix:` hint.
//
// Exit status: 0 no findings, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("conflint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rules     = fs.String("rules", "", "comma-separated rule subset (default: all); names: "+lint.RuleNames())
		listRules = fs.Bool("list-rules", false, "print the analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: conflint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listRules {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := lint.ByNames(*rules)
	if err != nil {
		fmt.Fprintf(stderr, "conflint: %v\n", err)
		return 2
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "conflint: %v\n", err)
		return 2
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(stderr, "conflint: %v\n", err)
		return 2
	}

	findings := filterFindings(root, lint.Run(m, analyzers), fs.Args())
	fmt.Fprint(stdout, lint.RenderText(m, findings))

	nodes, edges := m.Graph().Stats()
	fmt.Fprintf(stderr, "conflint: %d rules, %d finding(s), callgraph %d nodes / %d edges\n",
		len(analyzers), len(findings), nodes, edges)
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// moduleRoot walks upward from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// filterFindings keeps findings inside the selected package patterns.
// Patterns are module-root-relative directories, with "..." matching any
// suffix; no patterns (or "./...") selects everything.
func filterFindings(root string, fs []lint.Finding, patterns []string) []lint.Finding {
	if len(patterns) == 0 {
		return fs
	}
	var out []lint.Finding
	for _, f := range fs {
		rel, err := filepath.Rel(root, filepath.Dir(f.File))
		if err != nil {
			rel = filepath.Dir(f.File)
		}
		rel = filepath.ToSlash(rel)
		for _, pat := range patterns {
			if matchPattern(rel, pat) {
				out = append(out, f)
				break
			}
		}
	}
	return out
}

func matchPattern(relDir, pat string) bool {
	pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
	if pat == "..." || pat == "." || pat == "" {
		return true
	}
	if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
		return relDir == prefix || strings.HasPrefix(relDir, prefix+"/")
	}
	return relDir == pat
}
