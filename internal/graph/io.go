package graph

// Text serialization of graphs. The format is a line-oriented TSV that the
// cmd/datagen tool emits and the loaders in cmd/pitsearch and cmd/pitbench
// consume:
//
//	# comment lines and blank lines are ignored
//	nodes <n>
//	<from>\t<to>\t<weight>
//	...
//
// The "nodes" header must precede the first edge so loaders can size the
// Builder once. Read refuses a count above maxReadNodes.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxReadNodes is the largest "nodes" count Read accepts. Build sizes
// three int32 arrays by the count before any edge is read, so an
// unchecked header is an allocation request of 12 bytes a node: this
// bound keeps that under 1 GB while sitting far above the paper's
// largest dataset (≈ 3 M nodes).
const maxReadNodes = 1 << 26

// Write serializes g to w in the TSV edge-list format.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "nodes\t%d\n", g.NumNodes()); err != nil {
		return err
	}
	for u := 0; u < g.NumNodes(); u++ {
		nbrs, ws := g.OutNeighbors(NodeID(u))
		for i, v := range nbrs {
			if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\n", u, v, ws[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a graph from the TSV edge-list format produced by Write.
func Read(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var b *Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "nodes" {
			if b != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate nodes header", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed nodes header %q", lineNo, line)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", lineNo, fields[1])
			}
			if n > maxReadNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d exceeds %d, the most Read accepts", lineNo, n, maxReadNodes)
			}
			b = NewBuilder(n)
			continue
		}
		if b == nil {
			return nil, fmt.Errorf("graph: line %d: edge before nodes header", lineNo)
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: expected 'from to weight', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q", lineNo, fields[0])
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q", lineNo, fields[1])
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad weight %q", lineNo, fields[2])
		}
		if err := b.AddEdge(NodeID(u), NodeID(v), w); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if b == nil {
		return nil, fmt.Errorf("graph: input contains no nodes header")
	}
	return b.Build(), nil
}
