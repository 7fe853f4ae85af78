// Package ignore implements pitlint's suppression directive:
//
//	//pitlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The directive suppresses matching diagnostics reported on the same
// line (trailing comment) or on the line directly below (a directive on
// its own line). The analyzer list may be "all". The reason is
// mandatory: an intentional exception must say why it is intentional, so
// suppressions stay grep-able and reviewable. Malformed directives —
// missing analyzer list or missing reason — are themselves reported as
// findings by the driver, so a typo cannot silently disable a rule. A
// well-formed directive that suppressed nothing is reported too (see
// Unused): a dead exception must not outlive the code it excused.
package ignore

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Prefix is the directive marker, without the comment slashes.
const Prefix = "pitlint:ignore"

// Directive is one parsed //pitlint:ignore comment.
type Directive struct {
	File      string
	Line      int       // line the directive appears on
	Pos       token.Pos // of the directive comment
	Analyzers []string  // lower-case analyzer names, or ["all"]
	Reason    string

	used bool // suppressed at least one diagnostic (set by Suppressed)
}

// Malformed is a syntactically invalid directive, reported as a finding.
type Malformed struct {
	Pos     token.Pos
	Message string
}

// Index answers "is this diagnostic suppressed" queries and remembers
// which directives did the suppressing.
type Index struct {
	// byFileLine maps file → line → directives on that line.
	byFileLine map[string]map[int][]*Directive
}

// Build scans the comments of files for directives. It returns the index
// and any malformed directives.
func Build(fset *token.FileSet, files []*ast.File) (*Index, []Malformed) {
	ix := &Index{byFileLine: map[string]map[int][]*Directive{}}
	var bad []Malformed
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, Prefix) {
					continue
				}
				rest := strings.TrimPrefix(text, Prefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // e.g. "pitlint:ignoreXYZ" — not ours
				}
				d, msg := parse(rest)
				pos := fset.Position(c.Pos())
				if msg != "" {
					bad = append(bad, Malformed{Pos: c.Pos(), Message: msg})
					continue
				}
				d.File = pos.Filename
				d.Line = pos.Line
				d.Pos = c.Pos()
				lines := ix.byFileLine[d.File]
				if lines == nil {
					lines = map[int][]*Directive{}
					ix.byFileLine[d.File] = lines
				}
				lines[d.Line] = append(lines[d.Line], &d)
			}
		}
	}
	return ix, bad
}

// parse splits " analyzer[,analyzer] reason..." into a Directive, or
// returns a non-empty problem description.
func parse(rest string) (Directive, string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return Directive{}, "malformed //pitlint:ignore directive: missing analyzer list (want \"//pitlint:ignore <analyzer> <reason>\")"
	}
	if len(fields) < 2 {
		return Directive{}, "malformed //pitlint:ignore directive: missing reason (an intentional exception must say why)"
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" {
			return Directive{}, "malformed //pitlint:ignore directive: empty analyzer name in list"
		}
		names = append(names, n)
	}
	return Directive{Analyzers: names, Reason: strings.Join(fields[1:], " ")}, ""
}

// sorted returns every well-formed directive by file then line.
func (ix *Index) sorted() []*Directive {
	var out []*Directive
	for _, lines := range ix.byFileLine {
		for _, ds := range lines {
			out = append(out, ds...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Directives returns every well-formed directive in the index, sorted
// by file then line, for audit tooling (pitlint -why).
func (ix *Index) Directives() []Directive {
	var out []Directive
	for _, d := range ix.sorted() {
		out = append(out, *d)
	}
	return out
}

// Unused returns, sorted by file then line, the directives that have
// suppressed nothing so far although they could have: ran holds the
// (lower-case) names of the analyzers whose diagnostics were passed
// through Suppressed. A directive naming only analyzers that did not run
// is not judged.
func (ix *Index) Unused(ran map[string]bool) []Directive {
	var out []Directive
	for _, d := range ix.sorted() {
		if d.used {
			continue
		}
		for _, n := range d.Analyzers {
			if n == "all" || ran[n] {
				out = append(out, *d)
				break
			}
		}
	}
	return out
}

// Suppressed reports whether a diagnostic from analyzer at posn is
// covered by a directive on the same line or the line directly above,
// and marks that directive used.
func (ix *Index) Suppressed(posn token.Position, analyzer string) bool {
	lines := ix.byFileLine[posn.Filename]
	if lines == nil {
		return false
	}
	analyzer = strings.ToLower(analyzer)
	for _, line := range []int{posn.Line, posn.Line - 1} {
		for _, d := range lines[line] {
			for _, n := range d.Analyzers {
				if n == "all" || n == analyzer {
					d.used = true
					return true
				}
			}
		}
	}
	return false
}
