package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcalab/internal/analysis"
)

// wantSuppressions is every //vcalint:ignore the tree may carry, as
// "file analyzer" -> count. All six are the shard workers' busy-time and
// the group's wall-time meters, which no simulation logic reads. A new
// suppression is a reviewed edit of this table; a file-ignore has no row
// to go in.
var wantSuppressions = map[string]int{
	"internal/sim/shard.go determinism": 6,
}

// TestTree is the gate vcalint exists for: the analyzers the CLI runs,
// over the real module, as part of `go test ./...`.
func TestTree(t *testing.T) {
	findings, sups, err := analysis.Run(".", []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	got := map[string]int{}
	for _, s := range sups {
		if s.FileWide {
			t.Errorf("%s:%d: //vcalint:file-ignore: no non-test file opts out wholesale", s.File, s.Line)
			continue
		}
		for _, a := range s.Analyzers {
			got[s.File+" "+a]++
		}
	}
	for k, n := range got {
		if n != wantSuppressions[k] {
			t.Errorf("%d //vcalint:ignore for %q, wantSuppressions lists %d", n, k, wantSuppressions[k])
		}
	}
	for k, n := range wantSuppressions {
		if got[k] == 0 {
			t.Errorf("wantSuppressions lists %d for %q, the tree has none: prune the table", n, k)
		}
	}
}

// oneSite lists the decisions the tree makes in exactly one place, so a
// second site is the fork coming back: sel is "pkg.Name" or ".Field",
// counted over the non-test files matching the globs (relative to the
// module root) — occurrences, or files containing one when perFile is set.
var oneSite = []struct {
	why     string
	globs   []string
	sel     string
	perFile bool
	max     int
}{
	{"every runner goes through sweep.go's one runner.Map call (DESIGN.md §5)",
		[]string{"internal/experiment/*.go"}, "runner.Map", true, 1},
	{"the client reads MediaMode once, where newClient builds its encoder (DESIGN.md §8)",
		[]string{"internal/vca/client*.go", "internal/vca/obs.go"}, ".MediaMode", false, 1},
	{"sharded execution is reached only through cascade.NewTrial (DESIGN.md §12)",
		[]string{"internal/experiment/*.go", "internal/scenario/*.go", "cmd/*/*.go"}, "sim.NewGroup", false, 0},
	{"sharded execution is reached only through cascade.NewTrial (DESIGN.md §12)",
		[]string{"internal/experiment/*.go", "internal/scenario/*.go", "cmd/*/*.go"}, "sim.Group", false, 0},
}

func TestOneSite(t *testing.T) {
	root, _, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range oneSite {
		var sites []string
		for _, g := range rule.globs {
			files, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(g)))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: glob %q matches no file (%v): the rule checks nothing", rule.why, g, err)
			}
			for _, file := range files {
				if strings.HasSuffix(file, "_test.go") {
					continue
				}
				hits := selectorSites(t, file, rule.sel)
				if rule.perFile && len(hits) > 1 {
					hits = hits[:1]
				}
				sites = append(sites, hits...)
			}
		}
		if len(sites) > rule.max {
			t.Errorf("%s: %d sites of %s, want at most %d:\n\t%s",
				rule.why, len(sites), rule.sel, rule.max, strings.Join(sites, "\n\t"))
		}
	}
}

// selectorSites returns the position of every selector expression in file
// that reads sel.
func selectorSites(t *testing.T, file, sel string) []string {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	x, name, _ := strings.Cut(sel, ".")
	var sites []string
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectorExpr); ok && s.Sel.Name == name {
			if id, _ := s.X.(*ast.Ident); x == "" || (id != nil && id.Name == x) {
				sites = append(sites, fset.Position(s.Pos()).String())
			}
		}
		return true
	})
	return sites
}

// TestRunReportsFindingsAndSuppressions shows the gate can fail: a scratch
// module with a wall-clock read in a deterministic package yields the
// finding, and a suppressed one yields the suppression instead.
func TestRunReportsFindingsAndSuppressions(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vcalab\n")
	write("internal/netem/a.go", "package netem\n\nimport \"time\"\n\nvar T = time.Now()\n")
	write("internal/netem/b.go", "package netem\n\nimport \"time\"\n\n"+
		"var U = time.Now() //vcalint:ignore determinism scratch reason\n")
	findings, sups, err := analysis.Run(filepath.Join(dir, "internal"), []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].File != "internal/netem/a.go" || findings[0].Analyzer != "determinism" {
		t.Errorf("findings = %v, want one determinism finding in internal/netem/a.go", findings)
	}
	if len(sups) != 1 || sups[0].File != "internal/netem/b.go" || sups[0].FileWide || sups[0].Reason != "scratch reason" {
		t.Errorf("suppressions = %+v, want the one in internal/netem/b.go", sups)
	}
}

// TestArguments: package patterns and the word help, nothing else.
func TestArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		rc   int
		out  string
	}{
		{[]string{"help"}, 0, "usage: vcalint"},
		{[]string{"./internal/analysis"}, 0, ""},
		{[]string{"-V=full"}, 2, ""},
		{[]string{"-flags"}, 2, ""},
		{[]string{"./no/such/dir"}, 1, ""},
	} {
		var stdout, stderr bytes.Buffer
		rc := run(tc.args, &stdout, &stderr)
		if rc != tc.rc || !strings.HasPrefix(stdout.String(), tc.out) || (tc.out == "" && stdout.Len() > 0) {
			t.Errorf("vcalint %v: exit %d, stdout %q, stderr %q; want exit %d and stdout starting %q",
				tc.args, rc, stdout.String(), stderr.String(), tc.rc, tc.out)
		}
	}
}
