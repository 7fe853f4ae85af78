// Package goroutinelife enforces the lifecycle contract the serving
// stack converged on across PRs 3–6: every goroutine the engine, the
// ladder, the server or the chaos harness spawns must be something
// Close/drain can account for. Concretely, the goroutine must either
// complete a sync.WaitGroup (the Add/Done pattern Close waits on) or
// observe a context (ctx.Err()/ctx.Done()) so cancelling the engine
// lifecycle stops it. A goroutine with neither is detached: it can
// outlive Close, touch freed state, fail the chaos suite's
// goroutine-hygiene checks, and leak under load — the exact class of
// the PR-3 detached-build bug that had to be re-bounded onto the
// lifecycle context.
//
// The check is lexical per spawn site. A `go func(){...}()` literal is
// bounded when its body (including nested literals, e.g. a deferred
// Done) calls Done on a WaitGroup that the spawning function also
// Add()s, or observes a context. A `go f(...)` named call is bounded
// when f is declared in the same package and its body is. Spawning an
// imported function directly is a finding whatever its body does: the
// analyzer sees one package at a time, and the spawn site should show
// what bounds the goroutine — wrap the call in a literal that owns the
// WaitGroup or ctx.
package goroutinelife

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// scopeDirs are the concurrent serving-stack packages whose goroutines
// Close must be able to wait on — internal/search included, so a
// goroutine added to the search kernel meets the same rule.
// The summarization kernels manage their own worker pools with local
// WaitGroups and are covered transitively when these packages call them.
var scopeDirs = []string{
	"internal/core",
	"internal/search",
	"internal/server",
	"internal/chaos",
	"internal/stream",
	"internal/subscribe",
	"internal/shard",
}

var Analyzer = &analysis.Analyzer{
	Name: "goroutinelife",
	Doc: "goroutinelife: every goroutine must be waitable (WaitGroup) or lifecycle-cancelable (context)\n\n" +
		"Flags go statements in internal/{core,search,server,chaos,stream,subscribe,shard} whose goroutine neither\n" +
		"completes a sync.WaitGroup Add/Done pair nor observes a context, so Engine.Close\n" +
		"and server drain cannot wait for or stop it. Spawning an imported function directly\n" +
		"is always a finding: spawn a literal that owns the WaitGroup or ctx.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), scopeDirs...) {
		return nil
	}
	c := &checker{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		memo:  map[*types.Func]int{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[obj] = fd
			}
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			c.checkSpawn(f, g)
			return true
		})
	}
	return nil
}

const (
	stateChecking = iota + 1
	stateBounded
	stateDetached
)

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]int
}

// checkSpawn validates one go statement inside file f.
func (c *checker) checkSpawn(f *ast.File, g *ast.GoStmt) {
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		wgs := c.doneTargets(fun.Body)
		if len(wgs) > 0 {
			if c.hasAddOn(c.enclosingFunc(f, g), wgs) {
				return
			}
			c.pass.Reportf(g.Pos(),
				"goroutine calls Done on %s but the spawning function never calls Add on it; pair them in the spawner so Close can wait on the group", wgs[0])
			return
		}
		if c.observesContext(fun.Body) {
			return
		}
	default:
		if fn := analysis.Callee(c.pass.TypesInfo, g.Call); fn != nil {
			if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
				c.pass.Reportf(g.Pos(),
					"goroutine spawns imported function %s, whose body this analysis cannot see; spawn a func literal that owns the WaitGroup (Add/Done) or observes the lifecycle ctx and call it from there", fn.FullName())
				return
			}
			if c.funcBounded(fn) {
				return
			}
		}
	}
	c.pass.Reportf(g.Pos(),
		"goroutine is detached from the engine lifecycle: it neither completes a sync.WaitGroup (Add/Done) nor observes a context, so Close cannot wait for it or stop it; bound it with a WaitGroup the closer waits on or derive its work from the lifecycle ctx")
}

// enclosingFunc returns the innermost FuncDecl or FuncLit in f that
// contains g — the scope where the matching wg.Add must appear. The
// innermost wins because a deeper containing function node always
// starts later in the traversal.
func (c *checker) enclosingFunc(f *ast.File, g *ast.GoStmt) ast.Node {
	var best ast.Node = f
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > g.Pos() || n.End() < g.End() {
			return false // cannot contain g; prune
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			best = n
		}
		return true
	})
	return best
}

// isWaitGroup reports whether t is sync.WaitGroup, unwrapping one
// pointer.
func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// renderPath renders a selector/ident chain ("e.revalWG", "wg") for
// lexically matching a Done against its Add; non-chain expressions
// render empty and never match.
func renderPath(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := renderPath(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
	}
	return ""
}

// doneTargets returns the rendered paths of WaitGroups body calls
// Done() on, nested function literals included (a deferred
// func(){ wg.Done() } still completes the group).
func (c *checker) doneTargets(body ast.Node) []string {
	var out []string
	seen := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" || !isWaitGroup(c.pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
		if p := renderPath(sel.X); p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
		return true
	})
	return out
}

// hasAddOn reports whether scope contains an Add call on any of the
// rendered WaitGroup paths.
func (c *checker) hasAddOn(scope ast.Node, paths []string) bool {
	want := map[string]bool{}
	for _, p := range paths {
		want[p] = true
	}
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" || !isWaitGroup(c.pass.TypesInfo.TypeOf(sel.X)) {
			return true
		}
		if want[renderPath(sel.X)] {
			found = true
			return false
		}
		return true
	})
	return found
}

// observesContext reports whether body consults a context.Context:
// ctx.Err(), ctx.Done(), or delegation to a bounded same-package
// function.
func (c *checker) observesContext(body ast.Node) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if (sel.Sel.Name == "Err" || sel.Sel.Name == "Done") &&
				analysis.IsContextType(c.pass.TypesInfo.TypeOf(sel.X)) {
				ok = true
				return false
			}
		}
		if fn := analysis.Callee(c.pass.TypesInfo, call); fn != nil && c.funcBounded(fn) {
			ok = true
			return false
		}
		return true
	})
	return ok
}

// boundedBody reports whether a function body satisfies the spawn
// contract on its own: it completes some WaitGroup or observes a
// context.
func (c *checker) boundedBody(body ast.Node) bool {
	return len(c.doneTargets(body)) > 0 || c.observesContext(body)
}

// funcBounded resolves boundedness for a named function by its body
// (memoized, cycle-tolerant — a cycle resolves to detached). Only
// same-package declarations have a body here; anything else is detached.
func (c *checker) funcBounded(fn *types.Func) bool {
	switch c.memo[fn] {
	case stateBounded:
		return true
	case stateDetached, stateChecking:
		return false
	}
	fd, ok := c.decls[fn]
	if !ok || fd.Body == nil {
		c.memo[fn] = stateDetached
		return false
	}
	c.memo[fn] = stateChecking
	if c.boundedBody(fd.Body) {
		c.memo[fn] = stateBounded
		return true
	}
	c.memo[fn] = stateDetached
	return false
}
