package pipeline

import (
	"strings"
	"testing"

	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/progen"
)

// TestDecodeBundleRefusesForeignShapes holds the graph decoder to the
// routine a bundle describes: it rebuilds blocks and edges in arrays
// sized from the payload's counts and lays layout's per-word maps over
// the routine's extent, so a bundle whose counts outrun its bytes, or
// whose instructions lie outside its own extent, is refused as a miss.
func TestDecodeBundleRefusesForeignShapes(t *testing.T) {
	c := progen.DefaultConfig(3)
	c.Routines = 8
	p, err := progen.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewExecutable(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	g, err := e.Routines()[1].ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	b := &bundle{graph: g, live: dataflow.ComputeLiveness(g),
		blocks: int64(len(g.Blocks)), edges: int64(len(g.Edges))}
	for _, blk := range g.Blocks {
		b.insts += int64(len(blk.Insts))
	}
	if _, err := decodeBundle(e, encodeBundle(b)); err != nil {
		t.Fatalf("a sound bundle: %v", err)
	}

	b.edges = 1 << 20
	if _, err := decodeBundle(e, encodeBundle(b)); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Errorf("edge count beyond the payload: got %v", err)
	}
	b.edges = int64(len(g.Edges))

	end := g.End
	g.End = g.Start + 4
	defer func() { g.End = end }()
	if _, err := decodeBundle(e, encodeBundle(b)); err == nil || !strings.Contains(err.Error(), "outside the routine") {
		t.Errorf("instructions past the routine's end: got %v", err)
	}
}
