package main_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTool compiles pitlint into a temp dir and returns the go tool
// and binary paths, skipping when the environment cannot build.
func buildTool(t *testing.T) (goTool, tool string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds binaries and shells out to the go tool")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not found: %v", err)
	}
	tool = filepath.Join(t.TempDir(), "pitlint")
	build := exec.Command(goTool, "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pitlint: %v\n%s", err, out)
	}
	return goTool, tool
}

// writeTree writes the given files (creating parent dirs) under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVetProtocol builds pitlint and drives it through `go vet
// -vettool` against a scratch module, covering the full protocol:
// -V=full and -flags probes, vet.cfg parsing, gc-export-data
// type-checking, diagnostic output and the failure exit code.
func TestVetProtocol(t *testing.T) {
	goTool, tool := buildTool(t)

	mod := t.TempDir()
	writeTree(t, mod, map[string]string{
		"go.mod": "module scratch\n\ngo 1.24\n",
		"bad.go": `package scratch

import "math/rand"

func Draw() int { return rand.Intn(10) }
`,
		"good.go": `package scratch

import "math/rand"

func DrawSeeded(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(10) }
`,
	})

	vet := func() (string, error) {
		cmd := exec.Command(goTool, "vet", "-vettool="+tool, "./...")
		cmd.Dir = mod
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = &buf
		err := cmd.Run()
		return buf.String(), err
	}

	out, err := vet()
	if err == nil {
		t.Fatalf("go vet succeeded on a package with a violation; output:\n%s", out)
	}
	if !strings.Contains(out, "norandglobal") || !strings.Contains(out, "rand.Intn") {
		t.Fatalf("missing expected norandglobal diagnostic; output:\n%s", out)
	}

	// Fixing the violation (with a suppression, exercising the ignore
	// path through the vet driver too) turns the run green.
	writeTree(t, mod, map[string]string{
		"bad.go": `package scratch

import "math/rand"

func Draw() int {
	return rand.Intn(10) //pitlint:ignore norandglobal scratch fixture exercising suppression
}
`,
	})
	if out, err := vet(); err != nil {
		t.Fatalf("go vet failed on a clean package: %v\noutput:\n%s", err, out)
	}

	// A directive left behind once its finding is gone is itself a
	// finding: the suppression path reports what it did not use.
	writeTree(t, mod, map[string]string{
		"good.go": `package scratch

import "math/rand"

func DrawSeeded(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(10) //pitlint:ignore norandglobal seeded local source
}
`,
	})
	out, err = vet()
	if err == nil {
		t.Fatalf("go vet passed a suppression that suppresses nothing; output:\n%s", out)
	}
	if !strings.Contains(out, "good.go:6") || !strings.Contains(out, "[pitlint] unused suppression") {
		t.Fatalf("missing expected unused-suppression diagnostic; output:\n%s", out)
	}
}

// TestFlagsRoundTrip pins the -flags JSON contract: cmd/go parses this
// output to decide which flags it may forward, so a newly added flag
// that is missing here (or a decode regression) is protocol drift. The
// exact flag set is asserted — adding a flag means updating this test.
func TestFlagsRoundTrip(t *testing.T) {
	_, tool := buildTool(t)

	out, err := exec.Command(tool, "-flags").Output()
	if err != nil {
		t.Fatalf("pitlint -flags: %v", err)
	}
	var descs []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &descs); err != nil {
		t.Fatalf("-flags output is not the JSON cmd/go expects: %v\n%s", err, out)
	}
	got := map[string]bool{}
	for _, d := range descs {
		if d.Usage == "" {
			t.Errorf("flag %q has no usage string", d.Name)
		}
		got[d.Name] = d.Bool
	}
	want := map[string]bool{"list": true, "why": true}
	if len(got) != len(want) {
		t.Fatalf("-flags lists %v, want exactly %v", got, want)
	}
	for name, isBool := range want {
		gotBool, ok := got[name]
		if !ok {
			t.Errorf("-flags is missing flag %q", name)
		} else if gotBool != isBool {
			t.Errorf("flag %q Bool = %v, want %v", name, gotBool, isBool)
		}
	}
}

// TestWhyAudit covers the -why audit mode: every active directive is
// listed with file:line, analyzers, and justification; fixture trees
// are excluded; malformed directives fail the audit.
func TestWhyAudit(t *testing.T) {
	_, tool := buildTool(t)

	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"a.go": `package p

func a() {
	_ = 1 //pitlint:ignore ctxloop end-of-line justification
}
`,
		"b.go": `package p

func b() {
	//pitlint:ignore poolsafe,locksafe line-above justification
	_ = 2
}
`,
		"testdata/skip.go": `package q

func s() {
	_ = 3 //pitlint:ignore all fixture directive that must not be audited
}
`,
	})

	cmd := exec.Command(tool, "-why", dir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("pitlint -why failed on well-formed directives: %v\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"a.go:4: [ctxloop] end-of-line justification",
		"b.go:4: [poolsafe,locksafe] line-above justification",
		"2 active suppression(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-why output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "skip.go") {
		t.Errorf("-why audited a testdata fixture:\n%s", out)
	}

	// A directive with no justification fails the audit.
	writeTree(t, dir, map[string]string{
		"c.go": `package p

func c() {
	_ = 4 //pitlint:ignore ctxloop
}
`,
	})
	cmd = exec.Command(tool, "-why", dir)
	stderr.Reset()
	cmd.Stderr = &stderr
	err := cmd.Run()
	if err == nil {
		t.Fatal("pitlint -why passed a malformed directive")
	}
	if !strings.Contains(stderr.String(), "missing reason") {
		t.Errorf("audit failure does not explain the malformed directive:\n%s", stderr.String())
	}

	// So does a directive naming an analyzer the suite does not have: the
	// vet run judges only the analyzers it ran, so a retired name would
	// never be reported unused.
	writeTree(t, dir, map[string]string{
		"c.go": `package p

func c() {
	_ = 4 //pitlint:ignore timerleak retired analyzer
}
`,
	})
	cmd = exec.Command(tool, "-why", dir)
	stderr.Reset()
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("pitlint -why passed a directive naming an unknown analyzer")
	}
	if !strings.Contains(stderr.String(), `names "timerleak"`) {
		t.Errorf("audit failure does not name the unknown analyzer:\n%s", stderr.String())
	}
}
