// Command pitlint is the repo's static-analysis suite, packaged as a
// `go vet -vettool` unit checker:
//
//	go build -o bin/pitlint ./cmd/pitlint
//	go vet -vettool=bin/pitlint ./...
//
// It speaks the cmd/go vet protocol — responding to -V=full (tool build
// ID for the build cache), -flags (supported flags as JSON), and
// otherwise a single *.cfg argument describing one type-checked package
// — and runs the seven pitlint analyzers over it:
//
//	ctxloop        heavy kernel loops must observe ctx cancellation
//	norandglobal   no global math/rand state, no wall-clock seeding
//	probinvariant  no raw float ==/!=, no unchecked probability products
//	errsentinel    errors crossing core.Engine must wrap with %w
//	locksafe       no same-receiver call that re-acquires a held mutex
//	poolsafe       sync.Pool objects must drop object references before Put
//	unsafeslice    unsafe and syscall.Mmap only inside internal/storage
//
// Every analyzer judges one package at a time; no facts cross packages,
// so the .vetx file cmd/go expects from each invocation is written
// empty and dependency-only (VetxOnly) invocations do nothing else.
//
// Findings print to stderr as file:line:col: [analyzer] message and the
// tool exits 2, which go vet surfaces as a failure. Intentional
// exceptions are suppressed with `//pitlint:ignore <analyzer> <reason>`
// (see internal/analysis/ignore); `pitlint -why [dirs...]` lists every
// active suppression with its justification for review. The
// implementation is standard library only; the repo builds offline.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/ctxloop"
	"repro/internal/analysis/errsentinel"
	"repro/internal/analysis/ignore"
	"repro/internal/analysis/locksafe"
	"repro/internal/analysis/norandglobal"
	"repro/internal/analysis/poolsafe"
	"repro/internal/analysis/probinvariant"
	"repro/internal/analysis/unsafeslice"
)

var analyzers = []*analysis.Analyzer{
	ctxloop.Analyzer,
	errsentinel.Analyzer,
	locksafe.Analyzer,
	norandglobal.Analyzer,
	poolsafe.Analyzer,
	probinvariant.Analyzer,
	unsafeslice.Analyzer,
}

var (
	listFlag = flag.Bool("list", false, "list the analyzers and exit")
	whyFlag  = flag.Bool("why", false, "audit mode: list every active //pitlint:ignore directive with its justification")
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pitlint: ")

	// Protocol probes from cmd/go arrive before normal flag parsing.
	if len(os.Args) == 2 {
		switch os.Args[1] {
		case "-V=full", "--V=full":
			printVersion()
			return
		case "-flags", "--flags":
			printFlags()
			return
		}
	}
	flag.Parse()

	if *listFlag {
		for _, a := range analyzers {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-14s %s\n", a.Name, strings.TrimPrefix(doc, a.Name+": "))
		}
		return
	}

	if *whyFlag {
		dirs := flag.Args()
		if len(dirs) == 0 {
			dirs = []string{"."}
		}
		os.Exit(auditIgnores(dirs))
	}

	args := flag.Args()
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		log.Fatalf(`usage: pitlint package.cfg

pitlint is a go vet analysis tool; run it via:
	go vet -vettool=$(pwd)/bin/pitlint ./...`)
	}
	diags, fset, err := run(args[0])
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// printVersion implements -V=full: cmd/go keys the build cache on this
// line, so it must change whenever the executable does — hash ourselves.
func printVersion() {
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(os.Args[0]), h.Sum(nil))
}

// printFlags implements -flags: the JSON flag descriptions cmd/go uses
// to decide which command-line flags it may forward to the tool.
func printFlags() {
	type jsonFlagDesc struct {
		Name  string
		Bool  bool
		Usage string
	}
	var descs []jsonFlagDesc
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		descs = append(descs, jsonFlagDesc{
			Name:  f.Name,
			Bool:  ok && b.IsBoolFlag(),
			Usage: f.Usage,
		})
	})
	data, err := json.MarshalIndent(descs, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// auditIgnores implements -why: walk the given directories, parse every
// .go file's comments, and list each active //pitlint:ignore directive
// with its file:line, analyzer list, and justification — the review
// surface for intentional exceptions. Fixture trees (testdata), hidden
// directories, vendored code, and build output (bin) are skipped.
// Returns the process exit code: nonzero when any directive is
// malformed or names an analyzer that is not in the suite (the vet run
// reports a directive that suppresses nothing only for analyzers it
// ran, so a retired name would otherwise linger unjudged), so the audit
// doubles as a syntax gate.
func auditIgnores(dirs []string) int {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != dir && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor" || name == "bin") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	ix, bad := ignore.Build(fset, files)
	exit := 0
	for _, m := range bad {
		fmt.Fprintf(os.Stderr, "%s: [ignore] %s\n", fset.Position(m.Pos), m.Message)
		exit = 1
	}
	known := map[string]bool{"all": true}
	for _, a := range analyzers {
		known[strings.ToLower(a.Name)] = true // directive names are lower-cased by the parser
	}
	ds := ix.Directives()
	for _, d := range ds {
		for _, n := range d.Analyzers {
			if !known[n] {
				fmt.Fprintf(os.Stderr, "%s:%d: [ignore] //pitlint:ignore names %q, which is not a pitlint analyzer (see pitlint -list)\n", d.File, d.Line, n)
				exit = 1
			}
		}
		fmt.Printf("%s:%d: [%s] %s\n", d.File, d.Line, strings.Join(d.Analyzers, ","), d.Reason)
	}
	fmt.Printf("%d active suppression(s)\n", len(ds))
	return exit
}

// config mirrors the JSON cmd/go writes to vet.cfg (see
// cmd/go/internal/work.vetConfig); fields this tool does not consume are
// omitted.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// run executes the suite over the package described by cfgPath.
func run(cfgPath string) ([]analysis.Diagnostic, *token.FileSet, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, nil, err
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	// cmd/go fails the build unless every invocation leaves its
	// VetxOutput file behind. The analyzers exchange no facts, so the
	// file is always empty, and an invocation that exists only to
	// produce it (VetxOnly: a dependency of the packages being vetted)
	// has nothing else to do.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, token.NewFileSet(), nil
	}

	importPath := cfg.ImportPath
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i] // "pkg [pkg.test]" variant
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, fset, nil
			}
			return nil, nil, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tcfg := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor(compiler, build.Default.GOARCH),
		GoVersion: version.Lang(cfg.GoVersion),
		Error:     func(error) {},
	}
	info := analysis.NewInfo()
	tpkg, err := tcfg.Check(importPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, fset, nil
		}
		return nil, nil, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	diags, err := analysis.Run(&analysis.Package{
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
	}, analyzers)
	if err != nil {
		return nil, nil, err
	}
	return diags, fset, nil
}
