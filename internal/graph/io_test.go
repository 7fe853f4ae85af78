package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	g := randomGraph(3, 50, 400)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %v vs %v", got, g)
	}
	wantEdges, gotEdges := g.Edges(), got.Edges()
	for i := range wantEdges {
		if wantEdges[i] != gotEdges[i] {
			t.Fatalf("edge %d: %+v != %+v", i, gotEdges[i], wantEdges[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
nodes	3

0	1	0.5
# another
1	2	0.25
`
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("parsed %v, want 3 nodes 2 edges", g)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty input", ""},
		{"edge before header", "0\t1\t0.5\n"},
		{"duplicate header", "nodes\t2\nnodes\t2\n"},
		{"malformed header", "nodes\n"},
		{"negative node count", "nodes\t-1\n"},
		{"non-numeric node count", "nodes\tabc\n"},
		{"short edge line", "nodes\t2\n0\t1\n"},
		{"bad source", "nodes\t2\nx\t1\t0.5\n"},
		{"bad target", "nodes\t2\n0\ty\t0.5\n"},
		{"bad weight", "nodes\t2\n0\t1\tz\n"},
		{"weight out of range", "nodes\t2\n0\t1\t1.5\n"},
		{"node out of range", "nodes\t2\n0\t5\t0.5\n"},
		{"self loop", "nodes\t2\n1\t1\t0.5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Read(strings.NewReader(tc.in)); err == nil {
				t.Errorf("Read(%q) succeeded, want error", tc.in)
			}
		})
	}
}

// TestReadRefusesHugeNodeCount: a header past maxReadNodes is refused by
// its line before any array is sized by it. The first input is past any
// int32 NodeID (it asked Build for ≈ 700 GB); the second, found by
// FuzzRead and kept as its seed, is a valid int32 that asked for three
// 7.1 GB arrays.
func TestReadRefusesHugeNodeCount(t *testing.T) {
	for _, header := range []string{"nodes 177777777000", "nodes 1777777000", fmt.Sprintf("nodes %d", maxReadNodes+1)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(strings.NewReader("# a comment first\n" + header + "\n"))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("Read(%s) = %v, want an error naming line 2", header, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Read(%s) allocated %d bytes before refusing it", header, grew)
		}
	}
}

func TestWriteEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewBuilder(0).Build()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("round-tripped empty graph has content: %v", g)
	}
}
