// Package metrichygiene enforces the two rules that keep the
// dependency-free obs layer (internal/obs) safe at production traffic.
//
// Registration happens once, at wiring time: calls that create metric
// handles on an obs.Registry (Counter, Gauge, Histogram and their Vec
// variants) belong in a New*/new* constructor, init, or a package-level
// var — never on a request path. The registry is idempotent so a hot
// registration is not a correctness bug, but it is an RWMutex + map
// lookup + validation per request on paths engineered down to one
// atomic add, and it hides the handle-caching idiom the rest of the
// repo relies on.
//
// Label values come from bounded const sets: a label value that can
// carry a request-derived string (a query, a user ID, a raw URL path)
// makes metric cardinality grow with traffic until the scrape, and the
// process, fall over. A With(...) argument passes when it is provably
// bounded: a constant; a String() call on an integer-underlying named
// type (an enum stringer, e.g. core.Tier.String); a call to a
// same-package function all of whose returns are constants (the
// metricLabel idiom); or a local variable assigned only from such
// expressions. Everything else — parameters, struct fields, sprintf of
// user input — is flagged, and genuinely-bounded-but-unprovable sites
// (routeLabel-prefiltered paths, status codes) document themselves with
// a //pitlint:ignore justification.
package metrichygiene

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// scopeDirs: the packages that consume internal/obs. The obs package
// itself (which implements the registry) is deliberately out of scope.
var scopeDirs = []string{
	"internal/core",
	"internal/search",
	"internal/server",
	"internal/chaos",
	"internal/shard",
	"cmd",
}

var registrationMethods = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"CounterVec": true, "HistogramVec": true,
}

var vecTypes = map[string]bool{
	"CounterVec": true, "HistogramVec": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "metrichygiene",
	Doc: "metrichygiene: metrics register once at wiring time; label values come from bounded const sets\n\n" +
		"Flags obs.Registry registration calls outside New*/new*/init wiring functions and\n" +
		"Vec.With label values that are not provably bounded (request-derived labels grow\n" +
		"cardinality without bound).",
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
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[obj] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				c.checkFunc(d)
			case *ast.GenDecl:
				// Package-level var initializers are wiring by
				// definition; only their With args need bounding.
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						c.checkWith(nil, call)
					}
					return true
				})
			}
		}
	}
	return nil
}

const (
	stateChecking = iota + 1
	stateBounded
	stateUnbounded
)

type checker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	memo  map[*types.Func]int // const-returning function memo
}

// isObsRegistry reports whether t is the obs package's Registry.
func isObsRegistry(t types.Type) bool {
	return isObsNamed(t, "Registry")
}

// isObsNamed reports whether t (unwrapping one pointer) is the named
// type obs.<name> — matched by package base name so the analyzer works
// on both the real internal/obs and fixture stubs.
func isObsNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

// isWiringFunc reports whether fd is a sanctioned registration site: a
// New*/new* constructor or init.
func isWiringFunc(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// checkFunc validates registrations and With calls inside fd.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	wiring := isWiringFunc(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if registrationMethods[sel.Sel.Name] && isObsRegistry(c.pass.TypesInfo.TypeOf(sel.X)) && !wiring {
				c.pass.Reportf(call.Pos(),
					"metric %s registered inside %s; register once in a New*/new* constructor (or package-level var) and cache the handle — per-request registration is a lock and map lookup on a hot path",
					sel.Sel.Name, fd.Name.Name)
			}
		}
		c.checkWith(fd, call)
		return true
	})
}

// checkWith validates the label-value arguments of a Vec.With call.
func (c *checker) checkWith(fd *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "With" {
		return
	}
	recvType := c.pass.TypesInfo.TypeOf(sel.X)
	isVec := false
	for name := range vecTypes {
		if isObsNamed(recvType, name) {
			isVec = true
			break
		}
	}
	if !isVec {
		return
	}
	for _, arg := range call.Args {
		if !c.bounded(fd, arg, map[types.Object]bool{}) {
			c.pass.Reportf(arg.Pos(),
				"metric label value is not provably bounded; label values must come from a const set (constant, enum String(), or a const-returning helper) or cardinality grows with traffic")
		}
	}
}

// bounded reports whether expr provably evaluates to a member of a
// bounded set. visiting breaks assignment cycles.
func (c *checker) bounded(fd *ast.FuncDecl, expr ast.Expr, visiting map[types.Object]bool) bool {
	expr = ast.Unparen(expr)
	if tv, ok := c.pass.TypesInfo.Types[expr]; ok && tv.Value != nil {
		return true // constant
	}
	switch e := expr.(type) {
	case *ast.CallExpr:
		// Enum stringer: String() on a named type with integer/bool
		// underlying — the method can only produce as many values as
		// the enum has.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "String" && len(e.Args) == 0 {
			if isEnumLike(c.pass.TypesInfo.TypeOf(sel.X)) {
				return true
			}
		}
		// Same-package helper returning only constants (metricLabel).
		if fn := analysis.Callee(c.pass.TypesInfo, e); fn != nil && fn.Pkg() == c.pass.Pkg {
			return c.constReturning(fn)
		}
	case *ast.Ident:
		obj, ok := c.pass.TypesInfo.Uses[e].(*types.Var)
		if !ok || fd == nil || visiting[obj] {
			return false
		}
		visiting[obj] = true
		defer delete(visiting, obj)
		return c.localBounded(fd, obj, visiting)
	}
	return false
}

// isEnumLike reports whether t is a named type whose underlying is an
// integer or boolean — the shape of a stringered enum.
func isEnumLike(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	b, ok := named.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
}

// localBounded reports whether local variable obj is assigned only
// bounded expressions within fd (parameters and fields are never
// bounded — their values arrive from outside the function).
func (c *checker) localBounded(fd *ast.FuncDecl, obj *types.Var, visiting map[types.Object]bool) bool {
	assigned := false
	ok := true
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				// Multi-value assignment (x, y := f()): can't attribute.
				for _, lhs := range n.Lhs {
					if c.lhsIs(lhs, obj) {
						ok = false
					}
				}
				return true
			}
			for i, lhs := range n.Lhs {
				if !c.lhsIs(lhs, obj) {
					continue
				}
				assigned = true
				if !c.bounded(fd, n.Rhs[i], visiting) {
					ok = false
				}
			}
		case *ast.RangeStmt:
			// Range variables take values from the ranged collection;
			// a range over anything leaves them unproven here. (Ranging
			// a const array could be admitted later if needed.)
			if n.Value != nil && c.lhsIs(n.Value, obj) {
				ok = false
			}
			if n.Key != nil && c.lhsIs(n.Key, obj) {
				ok = false
			}
		}
		return true
	})
	return assigned && ok
}

// lhsIs reports whether lhs is exactly the identifier for obj.
func (c *checker) lhsIs(lhs ast.Expr, obj *types.Var) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if got, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok && got == obj {
		return true
	}
	if got, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok && got == obj {
		return true
	}
	return false
}

// constReturning reports whether every return in fn's body yields only
// constant expressions — the metricLabel idiom. Memoized,
// cycle-tolerant (a cycle resolves to unbounded).
func (c *checker) constReturning(fn *types.Func) bool {
	switch c.memo[fn] {
	case stateBounded:
		return true
	case stateUnbounded, stateChecking:
		return false
	}
	fd, ok := c.decls[fn]
	if !ok || fd.Body == nil {
		c.memo[fn] = stateUnbounded
		return false
	}
	c.memo[fn] = stateChecking
	ok = true
	returns := 0
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // different function's returns
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		returns++
		if len(ret.Results) == 0 {
			ok = false // naked return: can't see the value
			return true
		}
		for _, res := range ret.Results {
			tv, has := c.pass.TypesInfo.Types[res]
			if !has || tv.Value == nil {
				ok = false
			}
		}
		return true
	})
	if ok && returns > 0 {
		c.memo[fn] = stateBounded
		return true
	}
	c.memo[fn] = stateUnbounded
	return false
}
