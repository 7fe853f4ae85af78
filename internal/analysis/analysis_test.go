package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestRunReportsUnusedSuppression pins Run's promise about directives: one
// that hides a finding is silent, one that hides nothing is a [pitlint]
// finding on its own line, and one for an analyzer outside this
// invocation is left alone.
func TestRunReportsUnusedSuppression(t *testing.T) {
	const src = `package p

func f() {
	flagged() //pitlint:ignore calls suppresses the finding on this line
	quiet() //pitlint:ignore other that analyzer is not part of this run
	flagged()
	quiet() //pitlint:ignore calls nothing to suppress here
}

func flagged() {}
func quiet()   {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	calls := &Analyzer{Name: "calls", Run: func(pass *Pass) error {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagged" {
					pass.Reportf(call.Pos(), "call to flagged")
				}
			}
			return true
		})
		return nil
	}}
	diags, err := Run(&Package{Fset: fset, Files: []*ast.File{f}}, []*Analyzer{calls})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fset.Position(d.Pos).String()+" ["+d.Analyzer+"] "+d.Message)
	}
	if len(got) != 2 ||
		!strings.HasPrefix(got[0], "x.go:6:2 [calls] call to flagged") ||
		!strings.HasPrefix(got[1], "x.go:7:10 [pitlint] unused suppression: //pitlint:ignore calls ") {
		t.Fatalf("Run diagnostics =\n  %s\nwant the unsuppressed finding on line 6 and the unused directive on line 7", strings.Join(got, "\n  "))
	}
}
