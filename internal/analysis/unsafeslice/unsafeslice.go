// Package unsafeslice confines pointer reinterpretation to the one
// package audited for it. The v2 artifact path (internal/storage) reads
// index sections straight out of a read-only file mapping by
// reinterpreting raw bytes as typed slices — unsafe.Slice over an
// unsafe.Pointer — and owns the invariants that make that sound:
// element-size-multiple lengths, alignment checks, host-endianness
// gating, CRC-verified input, and a mapping whose lifetime is tied to
// the engine's drain gate. Scattered unsafe elsewhere would carry none
// of those guarantees, and a stray syscall.Mmap outside the storage
// layer would create a mapping no Close path ever unmaps (or worse, one
// whose backing slices outlive it — a use-after-munmap fault).
//
// The analyzer therefore flags, everywhere on production paths except
// internal/storage:
//
//   - importing unsafe (any use of unsafe.Pointer/Slice/SliceData…)
//   - calling syscall.Mmap or syscall.Munmap directly
//
// The fix is to route the access through internal/storage's typed
// views, or — for a genuinely new low-level subsystem — to carry a
// reviewed //pitlint:ignore directive naming the new invariant owner.
package unsafeslice

import (
	"go/ast"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// scopeDirs: module-wide; a stray unsafe is wrong on any production path.
var scopeDirs = []string{"internal", "cmd"}

// allowedSuffix is the one package whose views own the unsafe
// invariants. Matched by suffix so the fixture tree's module-prefixed
// path and the real repro/internal/storage both qualify.
const allowedSuffix = "internal/storage"

var Analyzer = &analysis.Analyzer{
	Name: "unsafeslice",
	Doc: "unsafeslice: unsafe and syscall.Mmap only inside internal/storage\n\n" +
		"Flags imports of unsafe and direct syscall.Mmap/Munmap calls outside\n" +
		"internal/storage, whose views own the zero-copy reinterpretation\n" +
		"invariants (size/alignment/endianness checks, CRC-verified input,\n" +
		"an unmap only after the query-gate drain). Route byte reinterpretation\n" +
		"through those views.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.InScope(pass.Pkg.Path(), scopeDirs...) {
		return nil
	}
	if pass.Pkg.Path() == allowedSuffix || strings.HasSuffix(pass.Pkg.Path(), "/"+allowedSuffix) {
		return nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && path == "unsafe" {
				pass.Reportf(imp.Pos(), "import of unsafe outside internal/storage; reinterpret bytes through the storage views, which own the size/alignment/lifetime invariants")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "syscall" {
				return true
			}
			switch fn.Name() {
			case "Mmap", "Munmap":
				pass.Reportf(call.Pos(), "syscall.%s outside internal/storage; mappings must be created and released by the storage layer so engine Close can drain and unmap them", fn.Name())
			}
			return true
		})
	}
	return nil
}
