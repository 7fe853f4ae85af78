package storage

// The immutability contract on adopted slices is enforced by hardware
// on the mmap backend: the mapping is PROT_READ, so an accidental write
// through a loaded index faults instead of silently corrupting the
// shared artifact. That fault kills the process, so the test re-execs
// itself and asserts the child dies — the standard pattern for
// must-crash behavior.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/randwalk"
)

func TestMmapWriteFaults(t *testing.T) {
	if !mmapIsReadOnly {
		t.Skip("mmap backend on this platform loads into writable heap memory")
	}
	const envChild = "STORAGE_FAULT_CHILD"
	if path := os.Getenv(envChild); path != "" {
		// Child: open the mapped artifact and write through an adopted
		// slice. The write must fault; reaching the print is a failure
		// the parent detects.
		ix, h, err := OpenWalkIndex(path)
		if err != nil {
			fmt.Println("child open failed:", err)
			os.Exit(3)
		}
		defer h.Close()
		_, _, _, walks, _, _, _ := ix.Raw()
		if len(walks) == 0 {
			fmt.Println("child: empty walk array")
			os.Exit(3)
		}
		walks[0] = 42
		fmt.Println("write did not fault")
		os.Exit(0)
	}

	ix, err := randwalk.Build(context.Background(), testGraph(t), randwalk.Options{L: 3, R: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "walks.pit")
	if err := SaveWalkIndex(path, ix); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestMmapWriteFaults$", "-test.v")
	cmd.Env = append(os.Environ(), envChild+"="+path, "GOTRACEBACK=0")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived writing to a mapped index:\n%s", out)
	}
	if strings.Contains(string(out), "write did not fault") {
		t.Fatalf("write to mapped index did not fault:\n%s", out)
	}
}
