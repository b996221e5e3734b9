// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer /
// Pass / Diagnostic surface for vcalab's custom analyzer (determinism)
// without pulling an external module into the build. It is strictly
// intra-package, so facts and requires-graphs are omitted.
//
// Run is the one way it runs: packages are type-checked from source
// and analyzed in-process, by cmd/vcalint and by its tier-1 test over
// the real tree. See DESIGN.md §14 for what the analyzer enforces and
// why it has no cheaper dynamic twin.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vcalint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `vcalint help`.
	Doc string
	// Run executes the check against one package. It reports findings
	// via pass.Reportf and returns a hard error only when the analysis
	// itself cannot proceed (never for findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. Duplicate (pos, message) pairs
// are collapsed so branch-replaying analyzers can report freely.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	for _, prev := range *p.diags {
		if prev.Pos == d.Pos && prev.Message == d.Message && prev.Analyzer == d.Analyzer {
			return
		}
	}
	*p.diags = append(*p.diags, d)
}

// Diagnostic is one finding, positioned inside the analyzed package.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Package bundles the inputs shared by every analyzer run on one
// type-checked package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// RunPackage applies each analyzer to pkg, then filters the findings
// through the //vcalint:ignore directives found in the package's files
// (see directive.go). Malformed directives surface as diagnostics of
// the pseudo-analyzer "vcalint". The loader never parses _test.go
// files: the invariants govern shipped code, tests exercise them
// dynamically.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	out := applyDirectives(pkg, diags, known)
	sort.Slice(out, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(out[i].Pos), pkg.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}
