package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages from source with no toolchain help, so
// vcalint works in an offline container with a cold build cache.
// Import paths under modPath resolve below modRoot (a modPath of ""
// puts every path there: the analyzer tests' GOPATH-style
// testdata/src); everything else falls back to GOROOT/src. Imported
// dependencies are checked API-only (IgnoreFuncBodies); only the
// package under analysis gets full bodies and a populated types.Info.
type Loader struct {
	Fset             *token.FileSet
	modPath, modRoot string
	imports          map[string]*types.Package
}

// NewLoader returns a loader resolving modPath under modRoot.
func NewLoader(modPath, modRoot string) *Loader {
	return &Loader{Fset: token.NewFileSet(), modPath: modPath, modRoot: modRoot, imports: map[string]*types.Package{}}
}

func isDir(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

func (l *Loader) dirFor(path string) (string, error) {
	rel, ok := strings.CutPrefix(path, l.modPath)
	if ok && (l.modPath == "" || rel == "" || rel[0] == '/') {
		if d := filepath.Join(l.modRoot, filepath.FromSlash(rel)); isDir(d) {
			return d, nil
		}
	}
	if d := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(path)); isDir(d) {
		return d, nil
	}
	return "", fmt.Errorf("cannot resolve import %q to a directory", path)
}

// Import implements types.Importer for dependency resolution.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.imports[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %q", path)
		}
		return p, nil
	}
	l.imports[path] = nil // cycle guard
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		// Imported stdlib internals may use compiler intrinsics the
		// pure type-checker dislikes; their exported API still loads.
		Error: func(error) {},
	}
	pkg, err := conf.Check(path, l.Fset, files, nil)
	if pkg == nil {
		return nil, err
	}
	l.imports[path] = pkg
	return pkg, nil
}

// parseDir parses the build-constraint-selected .go files of dir.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		return nil, err
	}
	names := append([]string{}, bp.GoFiles...)
	if includeTests {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadPackage fully type-checks the package in dir under importPath.
func (l *Loader) LoadPackage(importPath, dir string) (*Package, error) {
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	info := NewInfo()
	conf := types.Config{Importer: l, FakeImportC: true}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Fset: l.Fset, Files: files, Pkg: pkg, Info: info}, nil
}

// findPackages expands command-line patterns relative to root into
// (importPath, dir) pairs. Supported: "./..." (whole tree), "./x/..."
// (subtree), and plain relative directories. testdata and hidden
// directories are skipped, as are directories with no non-test Go
// files.
func findPackages(root, modPath string, patterns []string) (paths, dirs []string, err error) {
	seen := map[string]bool{}
	for _, pat := range patterns {
		rel, tree := strings.CutSuffix(pat, "...")
		base := filepath.Join(root, filepath.FromSlash(rel))
		if !isDir(base) {
			return nil, nil, fmt.Errorf("pattern %q: not a directory under %s", pat, root)
		}
		if !tree {
			seen[base] = true
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if name := d.Name(); d.IsDir() {
				if p != base && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
			} else if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				seen[filepath.Dir(p)] = true
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
	}
	for dir := range seen {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, nil, err
		}
		paths = append(paths, path.Join(modPath, filepath.ToSlash(rel)))
	}
	return paths, dirs, nil
}

// FindModule walks up from dir to the enclosing go.mod and returns its
// directory and module path.
func FindModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gm := filepath.Join(dir, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s", gm)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Finding is one diagnostic resolved to a position relative to the
// module root, printed the way compilers print theirs.
type Finding struct {
	File      string
	Line, Col int
	Analyzer  string
	Message   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Run is the one way the analyzers run: it finds the module enclosing
// dir, expands patterns against the module root, type-checks every
// matched package from source and applies analyzers to it. It returns
// the findings that survive the suppression directives, and every
// well-formed directive it met so a caller can audit them.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, []Suppression, error) {
	root, modPath, err := FindModule(dir)
	if err != nil {
		return nil, nil, err
	}
	paths, dirs, err := findPackages(root, modPath, patterns)
	if err != nil {
		return nil, nil, err
	}
	loader := NewLoader(modPath, root)
	rel := func(pos token.Position) string {
		if r, err := filepath.Rel(root, pos.Filename); err == nil {
			return filepath.ToSlash(r)
		}
		return pos.Filename
	}
	var findings []Finding
	var sups []Suppression
	for i, dir := range dirs {
		pkg, err := loader.LoadPackage(paths[i], dir)
		if err != nil {
			return nil, nil, err
		}
		diags, err := RunPackage(pkg, analyzers)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			findings = append(findings, Finding{rel(pos), pos.Line, pos.Column, d.Analyzer, d.Message})
		}
		for _, d := range parseDirectives(pkg) {
			if d.malformed == "" {
				pos := loader.Fset.Position(d.pos)
				sups = append(sups, Suppression{rel(pos), pos.Line, d.fileWide, d.analyzers, d.reason})
			}
		}
	}
	return findings, sups, nil
}
