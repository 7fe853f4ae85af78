package ignore

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func buildFrom(t *testing.T, src string) (*Index, []Malformed, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ix, bad := Build(fset, []*goast.File{f})
	return ix, bad, fset
}

func TestSameLineAndLineAbove(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //pitlint:ignore probinvariant exact comparison is intentional here
	//pitlint:ignore ctxloop,locksafe bounded loop, measured
	_ = 2
	_ = 3
}
`
	ix, bad, _ := buildFrom(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	pos := func(line int) token.Position { return token.Position{Filename: "x.go", Line: line} }

	if !ix.Suppressed(pos(4), "probinvariant") {
		t.Error("trailing directive should suppress its own line")
	}
	if ix.Suppressed(pos(4), "ctxloop") {
		t.Error("directive must only suppress the listed analyzers")
	}
	if !ix.Suppressed(pos(6), "ctxloop") || !ix.Suppressed(pos(6), "locksafe") {
		t.Error("own-line directive should suppress the next line for every listed analyzer")
	}
	if ix.Suppressed(pos(7), "ctxloop") {
		t.Error("directive must not reach two lines down")
	}
	if ix.Suppressed(token.Position{Filename: "y.go", Line: 4}, "probinvariant") {
		t.Error("directive must not cross files")
	}
}

func TestAllKeywordAndCaseInsensitivity(t *testing.T) {
	src := `package p

//pitlint:ignore ALL generated code, reviewed upstream
var x = 1
`
	ix, bad, _ := buildFrom(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	if !ix.Suppressed(token.Position{Filename: "x.go", Line: 4}, "anything") {
		t.Error("\"all\" should suppress every analyzer, case-insensitively")
	}
}

// A single trailing directive naming several analyzers suppresses each
// of them on that line — and nothing else.
func TestMultiAnalyzerSameLine(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //pitlint:ignore poolsafe,locksafe pool entry holds a lock by design
}
`
	ix, bad, _ := buildFrom(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	pos := token.Position{Filename: "x.go", Line: 4}
	if !ix.Suppressed(pos, "poolsafe") || !ix.Suppressed(pos, "locksafe") {
		t.Error("multi-analyzer directive should suppress every listed analyzer on its line")
	}
	if ix.Suppressed(pos, "ctxloop") {
		t.Error("multi-analyzer directive must not suppress an unlisted analyzer")
	}
}

// Directives enumerates what -why audits: every well-formed directive,
// sorted by file then line; malformed ones never make the list.
func TestDirectivesEnumeration(t *testing.T) {
	fset := token.NewFileSet()
	var files []*goast.File
	for name, src := range map[string]string{
		"b.go": `package p

var y = 2 //pitlint:ignore locksafe second file
`,
		"a.go": `package p

var x = 1 //pitlint:ignore ctxloop first file

//pitlint:ignore probinvariant,norandglobal later line
var z = 3

//pitlint:ignore ctxloop
var w = 4
`,
	} {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		files = append(files, f)
	}
	ix, bad := Build(fset, files)
	if len(bad) != 1 {
		t.Fatalf("want 1 malformed directive, got %d: %v", len(bad), bad)
	}
	ds := ix.Directives()
	if len(ds) != 3 {
		t.Fatalf("want 3 directives, got %d: %v", len(ds), ds)
	}
	wantOrder := []struct {
		file   string
		line   int
		reason string
	}{
		{"a.go", 3, "first file"},
		{"a.go", 5, "later line"},
		{"b.go", 3, "second file"},
	}
	for i, w := range wantOrder {
		d := ds[i]
		if d.File != w.file || d.Line != w.line || d.Reason != w.reason {
			t.Errorf("Directives()[%d] = %s:%d %q, want %s:%d %q",
				i, d.File, d.Line, d.Reason, w.file, w.line, w.reason)
		}
	}
	if len(ds[1].Analyzers) != 2 || ds[1].Analyzers[0] != "probinvariant" {
		t.Errorf("Directives()[1].Analyzers = %v, want both listed analyzers", ds[1].Analyzers)
	}
}

// Unused lists the directives that suppressed nothing although one of
// their analyzers ran; a directive for an analyzer that did not run is
// not judged, and a hit clears it for good.
func TestUnusedTracksHits(t *testing.T) {
	src := `package p

func f() {
	_ = 1 //pitlint:ignore probinvariant hit below
	_ = 2 //pitlint:ignore probinvariant never hit
	_ = 3 //pitlint:ignore ctxloop analyzer did not run
	_ = 4 //pitlint:ignore all never hit either
	_ = 5 //pitlint:ignore ctxloop,probinvariant hit through its second name
}
`
	ix, bad, _ := buildFrom(t, src)
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed directives: %v", bad)
	}
	ran := map[string]bool{"probinvariant": true}
	if got := ix.Unused(ran); len(got) != 4 {
		t.Fatalf("before any hit: want every directive but the ctxloop-only one unused, got %v", got)
	}
	pos := func(line int) token.Position { return token.Position{Filename: "x.go", Line: line} }
	if !ix.Suppressed(pos(4), "probinvariant") || !ix.Suppressed(pos(8), "probinvariant") {
		t.Fatal("directives on lines 4 and 8 should suppress probinvariant")
	}
	if ix.Suppressed(pos(5), "locksafe") {
		t.Fatal("a miss must not suppress")
	}
	got := ix.Unused(ran)
	if len(got) != 2 || got[0].Line != 5 || got[1].Line != 7 {
		t.Fatalf("Unused = %v, want the never-hit directives on lines 5 and 7", got)
	}
	if !got[0].Pos.IsValid() {
		t.Error("an unused directive must carry its comment position for the diagnostic")
	}
}

func TestMalformedDirectives(t *testing.T) {
	src := `package p

//pitlint:ignore
var a = 1

//pitlint:ignore ctxloop
var b = 2

//pitlint:ignorectxloop reasons
var c = 3
`
	ix, bad, _ := buildFrom(t, src)
	if len(bad) != 2 {
		t.Fatalf("want 2 malformed directives (missing list, missing reason), got %d: %v", len(bad), bad)
	}
	// The glued "pitlint:ignorectxloop" is not a directive at all.
	if ix.Suppressed(token.Position{Filename: "x.go", Line: 10}, "ctxloop") {
		t.Error("non-directive comment must not suppress anything")
	}
	// Malformed directives must not suppress.
	if ix.Suppressed(token.Position{Filename: "x.go", Line: 4}, "ctxloop") {
		t.Error("malformed directive must not suppress")
	}
}
