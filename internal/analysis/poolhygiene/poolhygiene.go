// Package poolhygiene implements the vcalint analyzer that tracks
// pooled objects — netem packets (PacketPool.Get / Host.NewPacket),
// vca media packets (mpPool.get / copyOf) and control messages
// (mpPool.getFeedback / getNack / getTWCC / copyCtrl), sim's pooled
// events (Engine.alloc) — from acquisition to one of the three legal
// fates:
//
//   - released: Release / ReleasePayload / discard / put / recycle / unref /
//     releaseMedia, directly or via defer;
//   - transferred: passed to another call (the callee now owes the
//     release — Host.Send, Mailbox.Post...), stored into a
//     field / slice / map / channel (pkt.Payload = fb hands the message
//     to the packet), returned, or captured;
//   - or it leaks, which is the finding: a path reaches a return (or
//     the loop iteration ends, for values acquired inside the loop)
//     with the value still owned and live.
//
// Use-after-release is the second finding: any read of a variable
// after the path released it.
//
// A media packet the SFU keeps for retransmission has several holders.
// retain() adds one — bound to the variable it is assigned to, or to
// the receiver when the call stands alone as a statement — and that
// reference has two fates only: unref, or a store (composite literal,
// field, element: the RTX ring slot). Handing a retained value to a call
// is a use, not a transfer, so a forgotten unref after the fan-out is
// caught. Recycling a still-retained value through releaseMedia (or any
// other single-owner release) is the third finding: other holders still
// point at it.
//
// The walk is a linear abstract interpretation over the function body
// (the syntactic CFG): if/else branches are interpreted separately
// and merged pessimistically toward "released" so a value released on
// either arm is never re-reported (under-approximation: a leak on
// exactly one arm of a merge can be missed; every straight-line and
// early-return leak is caught). Passing a pooled value to ANY call is
// assumed to transfer ownership (over-approximation: a callee that
// merely inspects hides a later leak). Both directions keep the
// analyzer false-positive-free on the established ownership idioms —
// pooled-packet transfer through mailboxes, payload hand-off via
// Host.Send — see DESIGN.md §14.
package poolhygiene

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vcalab/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolhygiene",
	Doc: "flags pooled packets/events that leak on a terminal path " +
		"(neither released nor ownership-transferred) and uses after release",
	Run: run,
}

// acquisition reports whether call hands out a pooled object: a
// Get/get/copyOf method (or one of the control-message getters) on a
// *...Pool receiver, Host.NewPacket, or the sim engine's event alloc.
func isAcquire(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := typeName(sig.Recv().Type())
	switch fn.Name() {
	case "Get", "get", "copyOf", "getFeedback", "getNack", "getTWCC", "copyCtrl":
		return strings.HasSuffix(recv, "Pool")
	case "NewPacket", "retain":
		return true
	case "alloc":
		return recv == "Engine"
	}
	return false
}

// release method / function names. put and recycle release their
// argument; the rest release their receiver.
var releaseMethods = map[string]bool{
	"Release": true, "ReleasePayload": true, "discard": true,
}
var releaseArgFuncs = map[string]bool{
	"put": true, "recycle": true, "releaseMedia": true, "unref": true,
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

type status uint8

const (
	stLive status = iota
	stReleased
	// stDeferred: a `defer` will release the value on every exit
	// path. Uses stay legal (the release has not happened yet);
	// leak checks are satisfied; an additional explicit release is a
	// double-release.
	stDeferred
)

type state map[*types.Var]status

func (s state) clone() state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// merge folds branch-end state b into s pessimistically: disagreement
// becomes released so neither arm's outcome is double-reported.
func (s state) merge(b state) {
	for v, st := range s {
		if bst, ok := b[v]; !ok || bst != st {
			s[v] = stReleased
		}
	}
	for v := range b {
		if _, ok := s[v]; !ok {
			s[v] = stReleased
		}
	}
}

type checker struct {
	pass *analysis.Pass
	// acquiredAt remembers where each tracked var came from, for the
	// leak message.
	acquiredAt map[*types.Var]token.Pos
	// retained marks tracked vars holding a counted reference (retain):
	// call arguments do not transfer them and only unref releases them.
	retained map[*types.Var]bool
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, acquiredAt: map[*types.Var]token.Pos{}, retained: map[*types.Var]bool{}}
			st := state{}
			term := c.walkBlock(fd.Body, st)
			if !term {
				c.leakCheck(st, "end of function")
			}
		}
	}
	return nil
}

// leakCheck reports every var still live in st.
func (c *checker) leakCheck(st state, where string) {
	for v, s := range st {
		if s == stLive {
			c.pass.Reportf(c.acquiredAt[v],
				"pooled value %q acquired here is neither released nor ownership-transferred on a path reaching %s", v.Name(), where)
			st[v] = stReleased // one report per acquisition
		}
	}
}

// walkBlock interprets stmts in order; reports true if every path
// through the block terminates (returns, panics, branches away).
func (c *checker) walkBlock(b *ast.BlockStmt, st state) bool {
	for _, s := range b.List {
		if c.walkStmt(s, st) {
			return true
		}
	}
	return false
}

func (c *checker) walkStmt(s ast.Stmt, st state) (terminated bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		c.walkAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					c.evalExpr(val, st)
					if i < len(vs.Names) {
						c.bind(vs.Names[i], val, st)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if v := c.retainReceiver(call); v != nil {
				// v.retain() on its own: the new reference stays with v.
				st[v], c.acquiredAt[v], c.retained[v] = stLive, call.Pos(), true
				return false
			}
			if c.handleCall(call, st) {
				return false
			}
			if isPanic(call) {
				c.evalExpr(call, st)
				return true
			}
		}
		c.evalExpr(s.X, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if v := c.varOf(r); v != nil {
				if st[v] == stReleased {
					c.useAfterRelease(v, r.Pos(), st)
				} else {
					delete(st, v) // returning transfers ownership
				}
				continue
			}
			c.evalExpr(r, st)
		}
		c.leakCheck(st, "this return")
		return true
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.evalExpr(s.Cond, st)
		thenSt := st.clone()
		thenTerm := c.walkBlock(s.Body, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = c.walkStmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replace(st, elseSt)
		case elseTerm:
			replace(st, thenSt)
		default:
			thenSt.merge(elseSt)
			replace(st, thenSt)
		}
	case *ast.BlockStmt:
		return c.walkBlock(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.evalExpr(s.Cond, st)
		}
		c.walkLoopBody(s.Body, st)
	case *ast.RangeStmt:
		c.evalExpr(s.X, st)
		c.walkLoopBody(s.Body, st)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		c.walkSwitch(s, st)
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok {
				sub := st.clone()
				for _, cs := range comm.Body {
					if c.walkStmt(cs, sub) {
						break
					}
				}
				st.merge(sub)
			}
		}
	case *ast.DeferStmt:
		c.handleDefer(s.Call, st)
	case *ast.GoStmt:
		c.evalExpr(s.Call, st)
	case *ast.SendStmt:
		c.evalExpr(s.Chan, st)
		c.evalExpr(s.Value, st) // sending transfers
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto leave the linear path; treat as
		// terminated so the surrounding merge keeps the other arm.
		return true
	case *ast.IncDecStmt:
		c.evalExpr(s.X, st)
	}
	return false
}

// replace overwrites dst's contents with src's.
func replace(dst, src state) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// walkLoopBody interprets a loop body once on a cloned state. Values
// acquired inside the body must die inside it: the next iteration
// rebinds them.
func (c *checker) walkLoopBody(body *ast.BlockStmt, st state) {
	before := st.clone()
	sub := st.clone()
	if !c.walkBlock(body, sub) {
		var fresh state
		for v, s := range sub {
			if _, existed := before[v]; !existed && s == stLive {
				if fresh == nil {
					fresh = state{}
				}
				fresh[v] = s
			}
		}
		c.leakCheck(fresh, "the end of the loop body")
		for v := range fresh {
			sub[v] = stReleased
		}
	}
	st.merge(sub)
}

func (c *checker) walkSwitch(s ast.Stmt, st state) {
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.evalExpr(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		body = s.Body
	}
	agg := st.clone()
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		sub := st.clone()
		for _, cs := range cc.Body {
			if c.walkStmt(cs, sub) {
				break
			}
		}
		agg.merge(sub)
	}
	replace(st, agg)
}

func (c *checker) walkAssign(s *ast.AssignStmt, st state) {
	// Evaluate RHS first (uses), then bind LHS.
	for _, r := range s.Rhs {
		c.evalExpr(r, st)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				c.bind(id, s.Rhs[i], st)
				continue
			}
			c.evalExpr(l, st)
			// Storing a live value into a field, element or dereference
			// hands it to whatever owns that location.
			if v := c.varOf(s.Rhs[i]); v != nil {
				if vs, tracked := st[v]; tracked && vs == stLive {
					delete(st, v)
				}
			}
		}
		return
	}
	for _, l := range s.Lhs {
		if _, ok := l.(*ast.Ident); !ok {
			c.evalExpr(l, st)
		}
	}
}

// bind connects an acquisition's result to the variable it lands in,
// and re-binding a still-live variable is itself a leak.
func (c *checker) bind(id *ast.Ident, rhs ast.Expr, st state) {
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if prev, tracked := st[v]; tracked && prev == stLive {
		c.pass.Reportf(c.acquiredAt[v],
			"pooled value %q acquired here is overwritten while still owned (leak)", v.Name())
	}
	if call, ok := stripParens(rhs).(*ast.CallExpr); ok && isAcquire(c.pass, call) {
		st[v] = stLive
		c.acquiredAt[v] = call.Pos()
		c.retained[v] = c.retainReceiver(call) != nil
		return
	}
	delete(st, v)
}

// retainReceiver returns x for a call of the form x.retain(), x a
// variable; nil for anything else.
func (c *checker) retainReceiver(call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "retain" || !isAcquire(c.pass, call) {
		return nil
	}
	return c.varOf(sel.X)
}

// handleCall applies release semantics; reports true if the call was
// a release (so the caller skips generic transfer evaluation).
func (c *checker) handleCall(call *ast.CallExpr, st state) bool {
	v, how := releaseTarget(c.pass, call)
	if v == nil {
		return false
	}
	c.release(how, v, call.Pos(), st)
	return true
}

// release applies the release named how to v. Only unref may let go of
// a retained reference: every other release recycles the object outright.
func (c *checker) release(how string, v *types.Var, pos token.Pos, st state) {
	c.checkRecycle(how, v, pos, st)
	if prev, tracked := st[v]; tracked && prev != stLive {
		if prev == stDeferred {
			c.pass.Reportf(pos, "%q is also released by a defer: this release double-releases it", v.Name())
		} else {
			c.pass.Reportf(pos, "%q is released twice on this path", v.Name())
		}
		return
	}
	st[v] = stReleased
}

// checkRecycle reports a single-owner release of a live retained
// reference, and in any case ends v's retained status.
func (c *checker) checkRecycle(how string, v *types.Var, pos token.Pos, st state) {
	if how != "unref" && c.retained[v] && st[v] == stLive {
		c.pass.Reportf(pos, "%s recycles %q while it still holds a retained reference: other holders may point at it, let go with unref", how, v.Name())
	}
	c.retained[v] = false
}

// handleDefer treats a deferred release as satisfying every exit
// path, without making intervening uses illegal: the release only
// actually runs at function exit.
func (c *checker) handleDefer(call *ast.CallExpr, st state) {
	if v, how := releaseTarget(c.pass, call); v != nil {
		if prev, tracked := st[v]; tracked && prev == stReleased {
			c.pass.Reportf(call.Pos(), "%q already released on this path; the deferred release will double-release it", v.Name())
		}
		c.checkRecycle(how, v, call.Pos(), st)
		st[v] = stDeferred
		return
	}
	// defer func() { ... v.Release() ... }(): scan the closure.
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CallExpr); ok {
				if v, _ := releaseTarget(c.pass, inner); v != nil {
					st[v] = stDeferred
				}
			}
			return true
		})
		return
	}
	c.evalExpr(call, st)
}

// releaseTarget returns the variable a call releases and the name of
// the releasing function, or nil.
func releaseTarget(pass *analysis.Pass, call *ast.CallExpr) (*types.Var, string) {
	name := ""
	var recv ast.Expr
	switch f := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = f.Sel.Name
		recv = f.X
	case *ast.Ident:
		name = f.Name
	default:
		return nil, ""
	}
	c := &checker{pass: pass}
	if releaseMethods[name] && recv != nil {
		return c.varOf(recv), name
	}
	if releaseArgFuncs[name] && len(call.Args) == 1 {
		return c.varOf(call.Args[0]), name
	}
	return nil, ""
}

// evalExpr scans an expression for uses of tracked variables:
// released → use-after-release; live var consumed by a call, closure,
// or composite literal → ownership transfer.
func (c *checker) evalExpr(e ast.Expr, st state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if c.handleCall(n, st) {
				return false
			}
			if isAcquire(c.pass, n) {
				// Un-bound acquisition (argument position, etc.):
				// ownership goes wherever the expression goes.
				return true
			}
			// Every argument that is a tracked live var transfers.
			for _, a := range n.Args {
				if v := c.varOf(a); v != nil {
					if st[v] == stReleased {
						c.useAfterRelease(v, a.Pos(), st)
					} else if _, ok := st[v]; ok && !c.retained[v] {
						delete(st, v)
					}
				} else {
					c.evalExpr(a, st)
				}
			}
			// The callee expression itself (receiver reads are fine,
			// but flag reads of released receivers).
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				c.checkReleasedUse(sel.X, st)
			}
			return false
		case *ast.FuncLit:
			// Capture transfers every tracked var referenced inside.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if v := c.varOf(id); v != nil {
						delete(st, v)
					}
				}
				return true
			})
			return false
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if v := c.varOf(val); v != nil {
					if st[v] == stReleased {
						c.useAfterRelease(v, val.Pos(), st)
					} else {
						delete(st, v) // stored: transferred
					}
				} else {
					c.evalExpr(val, st)
				}
			}
			return false
		case *ast.Ident:
			c.checkReleasedUse(n, st)
		}
		return true
	})
}

func (c *checker) checkReleasedUse(e ast.Expr, st state) {
	if v := c.varOf(e); v != nil && st[v] == stReleased {
		c.useAfterRelease(v, e.Pos(), st)
	}
}

func (c *checker) useAfterRelease(v *types.Var, pos token.Pos, st state) {
	c.pass.Reportf(pos, "use of pooled value %q after it was released", v.Name())
	delete(st, v) // one report per release point
}

func (c *checker) varOf(e ast.Expr) *types.Var {
	id, ok := stripParens(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return nil
	}
	return v
}

func stripParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
