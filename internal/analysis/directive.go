package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// Suppression directives.
//
//	//vcalint:ignore <analyzer>[,<analyzer>...] <reason>
//	//vcalint:file-ignore <analyzer>[,<analyzer>...] <reason>
//
// A line directive suppresses matching diagnostics on its own line or,
// when the comment stands alone, on the line directly below it. A
// file-ignore suppresses the named analyzers for the whole file. The
// reason is mandatory — a suppression without a recorded justification
// is itself a finding — and so is a real analyzer name: a typo'd name
// would otherwise silently suppress nothing forever.
const (
	ignorePrefix     = "vcalint:ignore"
	fileIgnorePrefix = "vcalint:file-ignore"
)

type directive struct {
	pos       token.Pos
	line      int  // line the comment sits on
	fileWide  bool // file-ignore
	analyzers []string
	reason    string
	malformed string // non-empty: why the directive is invalid
}

// parseDirective interprets one comment's text (without the `//`).
func parseDirective(text string, pos token.Pos, line int) (directive, bool) {
	text = strings.TrimSpace(text)
	var rest string
	d := directive{pos: pos, line: line}
	switch {
	case strings.HasPrefix(text, fileIgnorePrefix):
		d.fileWide = true
		rest = strings.TrimPrefix(text, fileIgnorePrefix)
	case strings.HasPrefix(text, ignorePrefix):
		rest = strings.TrimPrefix(text, ignorePrefix)
	default:
		return d, false
	}
	// A comment embedded after the directive (`//vcalint:ignore x y // note`)
	// is not part of the reason.
	if i := strings.Index(rest, "//"); i >= 0 {
		rest = rest[:i]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		d.malformed = "missing analyzer name and reason"
		return d, true
	}
	d.analyzers = strings.Split(fields[0], ",")
	d.reason = strings.Join(fields[1:], " ")
	if d.reason == "" {
		d.malformed = "missing reason (format: //vcalint:ignore <analyzer> <reason>)"
	}
	return d, true
}

// Suppression is one well-formed directive, as Run reports it: the
// tier-1 test holds the tree to a table of the ones it expects.
type Suppression struct {
	File      string // relative to the module root
	Line      int
	FileWide  bool
	Analyzers []string
	Reason    string
}

// parseDirectives collects every directive in pkg's files.
func parseDirectives(pkg *Package) []directive {
	var dirs []directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				d, ok := parseDirective(text, c.Pos(), pkg.Fset.Position(c.Pos()).Line)
				if !ok {
					continue
				}
				dirs = append(dirs, d)
			}
		}
	}
	return dirs
}

// applyDirectives filters diags through the directives in pkg's files
// and appends one "vcalint" diagnostic per malformed or unknown-name
// directive.
func applyDirectives(pkg *Package, diags []Diagnostic, known map[string]bool) []Diagnostic {
	dirs := parseDirectives(pkg)
	var out []Diagnostic
	for _, d := range dirs {
		if d.malformed != "" {
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "vcalint",
				Message: "malformed directive: " + d.malformed})
			continue
		}
		for _, name := range d.analyzers {
			if !known[name] {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "vcalint",
					Message: fmt.Sprintf("directive names unknown analyzer %q", name)})
			}
		}
	}

	for _, diag := range diags {
		pos := pkg.Fset.Position(diag.Pos)
		if !suppressed(diag, pos.Filename, pos.Line, pkg, dirs) {
			out = append(out, diag)
		}
	}
	return out
}

func suppressed(diag Diagnostic, file string, line int, pkg *Package, dirs []directive) bool {
	for _, d := range dirs {
		if d.malformed != "" {
			continue
		}
		dpos := pkg.Fset.Position(d.pos)
		if dpos.Filename != file {
			continue
		}
		match := false
		for _, name := range d.analyzers {
			if name == diag.Analyzer {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		if d.fileWide {
			return true
		}
		if d.line == line || d.line == line-1 {
			return true
		}
	}
	return false
}
