package pipeline

import (
	"strings"
	"testing"

	"eel/internal/cfg"
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

// TestDecodeBundleRefusesNonTreeDominators holds the idom decoder to a
// tree rooted at the entry: two blocks that each name the other as
// immediate dominator would keep DomTree.Dominates walking forever, so
// that bundle, and every other non-tree, is refused as a miss.
func TestDecodeBundleRefusesNonTreeDominators(t *testing.T) {
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
	var g *cfg.Graph
	for _, r := range e.Routines() {
		if rg, err := r.ControlFlowGraph(); err == nil && len(rg.Blocks) >= 3 && rg.Entry.ID == 0 {
			g = rg
			break
		}
	}
	if g == nil {
		t.Fatal("no routine of three blocks or more")
	}
	encode := func(idom []int32) []byte {
		b := &bundle{graph: g, idom: dataflow.RestoreDomTree(g, idom),
			blocks: int64(len(g.Blocks)), edges: int64(len(g.Edges))}
		for _, blk := range g.Blocks {
			b.insts += int64(len(blk.Insts))
		}
		return encodeBundle(b)
	}
	if _, err := decodeBundle(e, encode(dataflow.Dominators(g).IDoms())); err != nil {
		t.Fatalf("a sound bundle: %v", err)
	}
	star := func() []int32 { return make([]int32, len(g.Blocks)) } // every block's idom the entry, B0
	for _, bad := range []struct {
		name string
		edit func(idom []int32)
	}{
		{"two blocks naming each other", func(idom []int32) { idom[1], idom[2] = 2, 1 }},
		{"entry naming another block", func(idom []int32) { idom[0] = 1 }},
		{"entry unreachable", func(idom []int32) { idom[0] = -1 }},
		{"a block naming itself", func(idom []int32) { idom[2] = 2 }},
		{"a chain through an unreachable block", func(idom []int32) { idom[1], idom[2] = -1, 1 }},
	} {
		idom := star()
		bad.edit(idom)
		if _, err := decodeBundle(e, encode(idom)); err == nil || !strings.Contains(err.Error(), "not a tree") {
			t.Errorf("%s (B0..B2 %v): got %v", bad.name, idom[:3], err)
		}
	}
}
