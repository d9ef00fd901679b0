package pipeline

import (
	"testing"

	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/progen"
)

// FuzzDecodeBundle feeds the bundle decoder arbitrary bytes against a
// fixed executable, seeded with encoded bundles that carry liveness,
// dominators and loops.  Decoding must never panic, and every bundle
// it accepts must index only its own blocks and edges, with its
// dominators a tree rooted at the entry.
func FuzzDecodeBundle(f *testing.F) {
	c := progen.DefaultConfig(3)
	c.Routines = 8
	p, err := progen.Generate(c)
	if err != nil {
		f.Fatal(err)
	}
	e, err := core.NewExecutable(p.File)
	if err != nil {
		f.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		f.Fatal(err)
	}
	loops := 0
	for _, r := range e.Routines() {
		g, err := r.ControlFlowGraph()
		if err != nil {
			continue
		}
		dom := dataflow.Dominators(g)
		b := &bundle{graph: g, live: dataflow.ComputeLiveness(g), idom: dom, loops: dataflow.NaturalLoops(g, dom),
			blocks: int64(len(g.Blocks)), edges: int64(len(g.Edges))}
		for _, blk := range g.Blocks {
			b.insts += int64(len(blk.Insts))
		}
		loops += len(b.loops)
		f.Add(encodeBundle(b))
	}
	if loops == 0 {
		f.Fatal("no seed bundle has a loop")
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBundle(e, data)
		if err != nil {
			return
		}
		g := b.graph
		n := len(g.Blocks)
		if b.idom != nil {
			ids := b.idom.IDoms()
			if len(ids) != n {
				t.Fatalf("%d idoms for %d blocks", len(ids), n)
			}
			for id, d := range ids {
				if d < -1 || int(d) >= n {
					t.Fatalf("B%d's idom %d out of range", id, d)
				}
			}
			if ids[g.Entry.ID] != int32(g.Entry.ID) {
				t.Fatalf("entry B%d's idom is B%d", g.Entry.ID, ids[g.Entry.ID])
			}
			for id, d := range ids {
				// A chain up a tree of n blocks reaches its root in
				// fewer than n steps.
				for steps := 0; d >= 0 && d != int32(g.Entry.ID); steps++ {
					if d == ids[d] || steps == n {
						t.Fatalf("B%d's dominator chain does not reach the entry", id)
					}
					d = ids[d]
				}
				if ids[id] >= 0 && d < 0 {
					t.Fatalf("B%d's dominator chain meets an unreachable block", id)
				}
			}
		}
		for _, l := range b.loops {
			if l.Head.ID >= n || g.Blocks[l.Head.ID] != l.Head {
				t.Fatalf("loop head B%d is not the graph's", l.Head.ID)
			}
			if len(l.Body) != (n+63)/64 {
				t.Fatalf("loop body of %d words for %d blocks", len(l.Body), n)
			}
			for _, id := range l.Body.IDs() {
				if id >= n {
					t.Fatalf("loop body holds B%d of %d blocks", id, n)
				}
			}
			for _, ed := range l.BackEdges {
				if ed.ID >= len(g.Edges) || g.Edges[ed.ID] != ed {
					t.Fatalf("back edge E%d is not the graph's", ed.ID)
				}
			}
		}
	})
}
