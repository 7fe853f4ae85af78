// Package analysis is a minimal, dependency-free core compatible in
// spirit with golang.org/x/tools/go/analysis: an Analyzer inspects one
// type-checked package at a time through a Pass and reports Diagnostics.
//
// The x/tools module is deliberately not imported — the repo builds
// offline from the standard library alone — so this package re-implements
// the small subset the pitlint suite needs: the Analyzer/Pass/Diagnostic
// trio, deterministic diagnostic ordering, and the //pitlint:ignore
// suppression directive (see the ignore sub-package). Drivers are
// cmd/pitlint (the `go vet -vettool` unit checker) and
// internal/analysis/analysistest (the fixture-based test harness).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/ignore"
)

// Analyzer describes one static-analysis rule. Unlike x/tools analyzers
// it returns no result value and exchanges no cross-package facts: every
// pitlint rule is a single-package syntax+types check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //pitlint:ignore directives. By convention a single lowercase word.
	Name string
	// Doc is a short one-paragraph description; the first line is the
	// summary shown by `pitlint -list`.
	Doc string
	// Run applies the rule to one package via pass.Report/Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string // name of the reporting analyzer
	Message  string
}

// Report emits a diagnostic, stamping the analyzer name.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Package bundles the inputs shared by every analyzer run over the same
// type-checked package.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Run applies each analyzer to pkg, filters the findings through the
// //pitlint:ignore directives found in pkg's files, and returns the
// surviving diagnostics sorted by position then analyzer name. Malformed
// directives surface as diagnostics themselves (analyzer "pitlint"), and
// so does a well-formed directive that names an analyzer in analyzers
// yet suppressed none of its findings: an exception that excuses nothing
// is dead and must be deleted, not left to excuse the next edit.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	index, bad := ignore.Build(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, d := range bad {
		out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "pitlint", Message: d.Message})
	}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[strings.ToLower(a.Name)] = true
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
		}
		var diags []Diagnostic
		pass.report = func(d Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		for _, d := range diags {
			if index.Suppressed(pkg.Fset.Position(d.Pos), a.Name) {
				continue
			}
			out = append(out, d)
		}
	}
	for _, d := range index.Unused(ran) {
		out = append(out, Diagnostic{Pos: d.Pos, Analyzer: "pitlint", Message: fmt.Sprintf(
			"unused suppression: //pitlint:ignore %s matched no finding here; delete the directive", strings.Join(d.Analyzers, ","))})
	}
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
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}

// ModulePath is the import-path prefix of this repository. Analyzer
// scoping treats packages under it specially: a scoped analyzer runs
// only on its listed directories, while packages outside the module
// (analysistest fixtures, third-party code run through pitlint) are
// always eligible.
const ModulePath = "repro"

// InScope reports whether a scoped analyzer should run on pkgPath.
// dirs are module-relative directories such as "internal/lrw"; a package
// inside the module matches if it equals or sits below one of them.
// Packages outside the module are always in scope (fixtures rely on
// this; negative scope fixtures use module-prefixed fixture paths).
func InScope(pkgPath string, dirs ...string) bool {
	if pkgPath != ModulePath && !strings.HasPrefix(pkgPath, ModulePath+"/") {
		return true
	}
	for _, d := range dirs {
		p := ModulePath + "/" + d
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// IsTestFile reports whether f was parsed from a _test.go file. The
// pitlint analyzers enforce production invariants only: tests may use
// exact float comparisons, ad-hoc randomness and uncancelled loops.
func IsTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// Callee resolves the called function or method of call, or nil for
// indirect calls, builtins and type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// NewInfo returns a types.Info with every map analyzers rely on
// allocated. Both drivers use it so the analyzers see a uniform view.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}
