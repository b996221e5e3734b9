// Package hotpath implements the vcalint analyzer that keeps the
// //vca:hotpath-annotated functions — the per-tick media loops, the
// SFU forward/feedback paths, the shard barrier — within the
// ≤0.1 allocs/event budget cascade.TestTrialAllocsPerEvent gates
// dynamically.
//
// Inside an annotated function the analyzer flags every construct the
// zero-alloc rewrite (DESIGN.md §7) banned because it allocates per
// call:
//
//   - function literals (closure environments escape);
//   - slice, map and pointer composite literals, make, and new
//     (struct *value* literals are fine: they stay on the stack);
//   - fmt calls and string concatenation;
//   - implicit interface conversions that box a non-pointer concrete
//     value (assignments, call arguments, returns). Converting a
//     pointer into an interface stores the pointer in the iface word
//     and does not allocate, so pointers are exempt.
//
// The check is not transitive: callees are not entered, so a helper
// that allocates must carry its own annotation to be checked. append
// is deliberately legal — the hot loops append into per-call scratch
// slices that amortize to zero. Both approximations are documented in
// DESIGN.md §14.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vcalab/internal/analysis"
)

// Marker is the annotation that opts a function into the check.
const Marker = "vca:hotpath"

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flags allocating constructs (closures, boxing, fmt/string concat, " +
		"slice/map literals, make/new) inside //vca:hotpath functions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), Marker) {
			return true
		}
	}
	return false
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	var results *types.Tuple
	if sig, ok := info.Defs[fd.Name].Type().(*types.Signature); ok {
		results = sig.Results()
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "function literal in hot path: the closure environment allocates")
			return false // its body is cold by definition
		case *ast.CompositeLit:
			switch info.Types[n].Type.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "slice/map composite literal in hot path allocates every call")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "pointer composite literal in hot path allocates every call")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.Types[n.X].Type) {
				pass.Reportf(n.Pos(), "string concatenation in hot path allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.Types[n.Lhs[0]].Type) {
				pass.Reportf(n.Pos(), "string concatenation in hot path allocates")
			}
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for i := range n.Lhs {
					if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
						checkBox(pass, typeOf(info, n.Lhs[i]), n.Rhs[i], "assignment")
					}
				}
			}
		case *ast.ReturnStmt:
			if results != nil && len(n.Results) == results.Len() {
				for i, r := range n.Results {
					checkBox(pass, results.At(i).Type(), r, "return")
				}
			}
		}
		return true
	})
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	// Explicit conversion to an interface type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkBox(pass, tv.Type, call.Args[0], "conversion")
		}
		return
	}
	// Builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make in hot path allocates every call")
			case "new":
				pass.Reportf(call.Pos(), "new in hot path allocates every call")
			}
			return
		}
	}
	// fmt.* anything.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s in hot path allocates (formatting boxes its operands)", fn.Name())
			return
		}
	}
	// Implicit boxing at argument positions.
	sigT, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := sigT.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing an existing slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		checkBox(pass, pt, arg, "argument")
	}
}

// checkBox reports when assigning expr to a destination of type dst
// boxes a non-pointer concrete value into an interface.
func checkBox(pass *analysis.Pass, dst types.Type, expr ast.Expr, where string) {
	if dst == nil {
		return
	}
	if _, isIface := dst.Underlying().(*types.Interface); !isIface {
		return
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return
	}
	src := tv.Type
	if tv.IsNil() {
		return
	}
	switch src.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return // iface→iface rewraps, pointers ride in the iface word
	}
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	pass.Reportf(expr.Pos(), "%s implicitly converts %s to interface %s: boxing allocates in hot path",
		where, src.String(), dst.String())
}
