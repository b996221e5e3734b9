// Package determinism implements the vcalint analyzer that rejects
// sources of run-to-run nondeterminism inside the packages whose
// output must be byte-identical at any -parallel × -shards setting.
//
// Flagged in deterministic packages:
//
//   - `range` over a map whose body has observable effects (any call
//     that is not a conversion or a pure builtin, a channel send, a
//     `go`/`defer`, or an `append`/`copy`): Go randomizes map
//     iteration order, so effects ordered by it diverge between runs.
//     Effect-free bodies — commutative accumulation, max-tracking,
//     `delete` — are legal and stay unflagged.
//   - time.Now / time.Since: simulation time is engine time; wall
//     clock in a deterministic package leaks host speed into results.
//   - Draws from math/rand's global source (rand.Intn, rand.Float64,
//     rand.Shuffle, ...): the global source is shared across
//     goroutines and seeded once per process, so any draw depends on
//     every other draw in the run. Constructors (rand.New,
//     rand.NewSource, rand.NewZipf) and methods on a seeded
//     *rand.Rand stay legal.
//   - select statements: runtime-random case choice.
//   - `go` statements outside the blessed shard-runtime files: all
//     other deterministic code must be single-threaded per engine.
//
// The analyzer over-approximates effectfulness (an unknown call might
// be pure) and under-approximates nondeterminism (it cannot see map
// iteration laundered through a helper); both directions are safe —
// see DESIGN.md §14.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"vcalab/internal/analysis"
)

// Packages lists the import-path prefixes whose packages must be
// deterministic. Tests may append to it.
var Packages = []string{
	"vcalab/internal/sim",
	"vcalab/internal/vca",
	"vcalab/internal/netem",
	"vcalab/internal/cascade",
	"vcalab/internal/scenario",
	"vcalab/internal/experiment",
	"vcalab/internal/rtp",
	"vcalab/internal/cc",
}

// BlessedGoFiles names the files allowed to contain `go` statements,
// per deterministic package: the shard workers are the one place
// goroutines exist, synchronized by the conservative barrier protocol.
var BlessedGoFiles = map[string][]string{
	"vcalab/internal/sim": {"shard.go"},
}

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flags wall-clock reads, global RNG draws, selects, stray goroutines, " +
		"and effectful map iteration in packages that must replay byte-identically",
	Run: run,
}

func covered(path string) bool {
	for _, p := range Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	pkgPath := pass.Pkg.Path()
	if !covered(pkgPath) {
		return nil
	}
	blessed := map[string]bool{}
	for _, f := range BlessedGoFiles[pkgPath] {
		blessed[f] = true
	}
	for _, file := range pass.Files {
		base := filepath.Base(pass.Fset.File(file.Pos()).Name())
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.SelectorExpr:
				checkSelector(pass, n)
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select statement in deterministic package: case choice is runtime-random")
			case *ast.GoStmt:
				if !blessed[base] {
					pass.Reportf(n.Pos(), "go statement outside the blessed shard files: deterministic code is single-threaded per engine")
				}
			}
			return true
		})
	}
	return nil
}

// checkSelector flags time.Now/time.Since and global math/rand draws.
func checkSelector(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj, ok := pass.TypesInfo.Uses[sel.Sel]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			pass.Reportf(sel.Pos(), "time.%s in deterministic package: use the engine clock (Engine.Now)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			// constructors of private, seedable sources
		default:
			pass.Reportf(sel.Pos(), "rand.%s draws from the process-global RNG: use a seeded *rand.Rand (e.g. Engine.Rand)", fn.Name())
		}
	}
}

// checkMapRange flags map iteration whose body has observable effects.
func checkMapRange(pass *analysis.Pass, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if effect, what := firstEffect(pass, rng.Body); effect != token.NoPos {
		pass.Reportf(rng.Pos(),
			"map iteration order is random and this body has observable effects (%s at line %d): iterate a deterministic order list",
			what, pass.Fset.Position(effect).Line)
	}
}

// pure builtins whose calls never make an iteration order observable.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true,
	"delete": true, "real": true, "imag": true, "complex": true,
	"abs": true, "panic": true,
}

// firstEffect returns the position and description of the first
// effectful construct in body, or NoPos.
func firstEffect(pass *analysis.Pass, body *ast.BlockStmt) (token.Pos, string) {
	pos, what := token.NoPos, ""
	ast.Inspect(body, func(n ast.Node) bool {
		if pos != token.NoPos {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if tv, ok := pass.TypesInfo.Types[n.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			if id, ok := n.Fun.(*ast.Ident); ok {
				if b, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					if pureBuiltins[b.Name()] {
						return true
					}
					pos, what = n.Pos(), "call to builtin "+b.Name()
					return false
				}
			}
			pos, what = n.Pos(), "call to "+callName(n)
			return false
		case *ast.SendStmt:
			pos, what = n.Pos(), "channel send"
			return false
		case *ast.GoStmt:
			pos, what = n.Pos(), "go statement"
			return false
		case *ast.DeferStmt:
			pos, what = n.Pos(), "defer"
			return false
		}
		return true
	})
	return pos, what
}

func callName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return "function value"
}
