// Package analysistest runs an analyzer over fixture packages under a
// testdata directory and checks its diagnostics against expectations
// embedded in the fixtures, in the style of
// golang.org/x/tools/go/analysis/analysistest (re-implemented here on
// the standard library only, since the repo builds offline).
//
// Fixtures live in testdata/src/<pkgpath>/*.go. Expectations are
// comments of the form
//
//	code() // want "regexp"
//	code() // want "regexp1" "regexp2"
//
// anchored to the line they appear on. A test fails if an expected
// diagnostic is missing, an unexpected diagnostic appears, or the
// fixture does not type-check. Fixture imports resolve first against
// sibling testdata/src packages (so a fixture can stub repo packages
// such as "prob"), then against the standard library, type-checked from
// GOROOT source.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// Run loads each fixture package and applies a, comparing diagnostics
// against the // want expectations. pkgs are paths relative to
// dir/src (e.g. "a", "repro/internal/lrw").
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		pkg := pkg
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			t.Helper()
			run(t, dir, a, pkg)
		})
	}
}

func run(t *testing.T, dir string, a *analysis.Analyzer, pkgPath string) {
	t.Helper()
	ld := newLoader(filepath.Join(dir, "src"))
	pkg, err := ld.load(pkgPath)
	if err != nil {
		t.Fatalf("loading fixture %q: %v", pkgPath, err)
	}
	diags, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %q: %v", a.Name, pkgPath, err)
	}
	check(t, pkg.Fset, pkg.Files, diags)
}

// expectation is one // want "re" clause.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// parseWants extracts expectations from the fixture comments.
func parseWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				posn := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					quote := rest[0]
					if quote != '"' && quote != '`' {
						t.Fatalf("%s:%d: malformed want clause %q", posn.Filename, posn.Line, rest)
					}
					end := strings.IndexByte(rest[1:], quote)
					if end < 0 {
						t.Fatalf("%s:%d: unterminated want pattern %q", posn.Filename, posn.Line, rest)
					}
					pat := rest[1 : 1+end]
					rest = strings.TrimSpace(rest[2+end:])
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", posn.Filename, posn.Line, pat, err)
					}
					wants = append(wants, &expectation{file: posn.Filename, line: posn.Line, re: re, raw: pat})
				}
			}
		}
	}
	return wants
}

// check matches diagnostics against expectations one-to-one.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	wants := parseWants(t, fset, files)
	for _, d := range diags {
		posn := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if w.hit || w.file != posn.Filename || w.line != posn.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: [%s] %s", posn.Filename, posn.Line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

// loader type-checks fixture packages, resolving imports against sibling
// fixture packages first and the standard library second.
type loader struct {
	root   string // testdata/src
	fset   *token.FileSet
	pkgs   map[string]*pkgResult
	stdImp types.Importer
}

type pkgResult struct {
	pkg  *analysis.Package
	err  error
	busy bool
}

func newLoader(root string) *loader {
	ld := &loader{root: root, fset: token.NewFileSet(), pkgs: map[string]*pkgResult{}}
	ld.stdImp = importer.ForCompiler(ld.fset, "source", nil)
	return ld
}

// Import implements types.Importer over the fixture tree + stdlib.
func (ld *loader) Import(path string) (*types.Package, error) {
	if fi, err := os.Stat(filepath.Join(ld.root, filepath.FromSlash(path))); err == nil && fi.IsDir() {
		p, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return ld.stdImp.Import(path)
}

// load parses and type-checks one fixture package (memoized).
func (ld *loader) load(path string) (*analysis.Package, error) {
	if r, ok := ld.pkgs[path]; ok {
		if r.busy {
			return nil, fmt.Errorf("import cycle through fixture %q", path)
		}
		return r.pkg, r.err
	}
	r := &pkgResult{busy: true}
	ld.pkgs[path] = r
	r.pkg, r.err = ld.loadUncached(path)
	r.busy = false
	return r.pkg, r.err
}

func (ld *loader) loadUncached(path string) (*analysis.Package, error) {
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return ld.fset.Position(files[i].Pos()).Filename < ld.fset.Position(files[j].Pos()).Filename
	})
	info := analysis.NewInfo()
	conf := &types.Config{Importer: ld, Error: func(error) {}}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %q: %v", path, err)
	}
	return &analysis.Package{Fset: ld.fset, Files: files, Pkg: tpkg, TypesInfo: info}, nil
}
