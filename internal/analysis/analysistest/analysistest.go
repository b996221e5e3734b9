// Package analysistest is a miniature of
// golang.org/x/tools/go/analysis/analysistest: it loads a GOPATH-style
// testdata/src tree, runs one analyzer over named packages, and
// matches the diagnostics against "// want `regexp`" comments placed
// on the offending lines. Unmatched diagnostics and unsatisfied wants
// both fail the test.
//
// Directives (`//vcalint:ignore`) are honored exactly as in
// production — RunPackage applies them before the comparison — so
// testdata can assert both that violations are caught and that
// suppressed ones stay silent.
package analysistest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vcalab/internal/analysis"
)

// want is one expectation: a regexp that some diagnostic on the same
// file/line must match.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads each pkgpath from testdata/src/<pkgpath>, applies the
// analyzer, and compares diagnostics to want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	for _, pkgpath := range pkgpaths {
		loader := analysis.NewLoader("", src)
		pkg, err := loader.LoadPackage(pkgpath, filepath.Join(src, filepath.FromSlash(pkgpath)))
		if err != nil {
			t.Fatalf("loading %s: %v", pkgpath, err)
		}
		diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkgpath, err)
		}
		wants := collectWants(t, pkg)
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			if !consume(wants, pos.Filename, pos.Line, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s [%s]", pos, d.Message, d.Analyzer)
			}
		}
		for _, w := range wants {
			if !w.hit {
				t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
			}
		}
	}
}

func consume(wants []*want, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}

// collectWants scans every comment for "want `re`" clauses. Multiple
// quoted regexps may follow one want.
func collectWants(t *testing.T, pkg *analysis.Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					// Allow wants embedded after other comment text, so a
					// directive under test can carry its own expectation:
					// //vcalint:ignore bogus reason // want `unknown analyzer`
					j := strings.Index(text, "// want ")
					if j < 0 {
						continue
					}
					text = strings.TrimSpace(text[j+len("// "):])
				}
				pos := pkg.Fset.Position(c.Pos())
				res, err := parseWants(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Fatalf("%s: bad want comment: %v", pos, err)
				}
				for _, re := range res {
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// parseWants splits `re1` `re2` (back-quoted) clauses.
func parseWants(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '`' {
			return nil, fmt.Errorf("expected back-quoted regexp, got %q", s)
		}
		raw, rest, ok := strings.Cut(s[1:], "`")
		if !ok {
			return nil, fmt.Errorf("unterminated regexp in %q", s)
		}
		re, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, re)
		s = strings.TrimSpace(rest)
	}
	return out, nil
}
