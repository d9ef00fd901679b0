// Package dataflow provides EEL's standard CFG analyses (paper
// §3.3): dominators, natural loops, live registers (including
// condition codes, which enables the Blizzard optimization of §5),
// and the backward slicing that resolves indirect jumps to their
// dispatch tables.
package dataflow

import (
	"math/bits"
	"slices"

	"eel/internal/cfg"
)

// ReversePostorder returns the graph's blocks in reverse postorder
// from the entry block (unreachable blocks are appended at the end in
// ID order so analyses still see them).
func ReversePostorder(g *cfg.Graph) []*cfg.Block {
	seen := make([]bool, len(g.Blocks))
	post := make([]*cfg.Block, 0, len(g.Blocks))
	// Iterative DFS with an explicit frame stack: recursion depth is
	// the length of the longest straight-line chain, which for large
	// machine-generated routines can overflow the goroutine stack.
	type frame struct {
		b    *cfg.Block
		next int // index of the next successor edge to explore
	}
	seen[g.Entry.ID] = true
	stack := append(make([]frame, 0, len(g.Blocks)), frame{b: g.Entry})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.b.Succ) {
			e := f.b.Succ[f.next]
			f.next++
			if !seen[e.To.ID] {
				seen[e.To.ID] = true
				stack = append(stack, frame{b: e.To})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(post)
	for _, b := range g.Blocks {
		if !seen[b.ID] {
			post = append(post, b)
		}
	}
	return post
}

// DomTree is a graph's dominator tree, indexed by block ID.
type DomTree struct {
	g *cfg.Graph
	// idom[id] is the ID of block id's immediate dominator: the
	// entry's own ID for the entry, -1 for an unreachable block.
	idom []int32
}

// Dominators computes each block's immediate dominator using the
// Cooper-Harvey-Kennedy iterative algorithm over reverse-postorder
// indexes.
func Dominators(g *cfg.Graph) *DomTree {
	rpo := ReversePostorder(g)
	n := len(g.Blocks)
	idom, order := make([]int32, n), make([]int32, n) // order: RPO index by block ID
	for i, b := range rpo {
		idom[b.ID], order[b.ID] = -1, int32(i)
	}
	idom[rpo[0].ID] = int32(rpo[0].ID) // rpo[0] is the entry
	intersect := func(a, b int32) int32 {
		for a != b {
			for order[a] > order[b] {
				a = idom[a]
			}
			for order[b] > order[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			d := int32(-1)
			for _, e := range b.Pred {
				if p := int32(e.From.ID); idom[p] >= 0 {
					if d < 0 {
						d = p
					} else {
						d = intersect(d, p)
					}
				}
			}
			if d >= 0 && idom[b.ID] != d {
				idom[b.ID] = d
				changed = true
			}
		}
	}
	return &DomTree{g: g, idom: idom}
}

// RestoreDomTree rebuilds a DomTree over g from its IDoms array (the
// persistent analysis cache deserializes through it).
func RestoreDomTree(g *cfg.Graph, idom []int32) *DomTree { return &DomTree{g: g, idom: idom} }

// IDoms returns the tree as an array by block ID: each block's
// immediate dominator's ID, the entry's own ID for the entry, and -1
// for an unreachable block.  Callers must not modify it.
func (t *DomTree) IDoms() []int32 { return t.idom }

// IDom returns b's immediate dominator: the entry for the entry, nil
// for an unreachable block.
func (t *DomTree) IDom(b *cfg.Block) *cfg.Block {
	if d := t.idom[b.ID]; d >= 0 {
		return t.g.Blocks[d]
	}
	return nil
}

// Dominates reports whether a dominates b.
func (t *DomTree) Dominates(a, b *cfg.Block) bool {
	for id := int32(b.ID); id != int32(a.ID); {
		next := t.idom[id]
		if next < 0 || next == id {
			return false
		}
		id = next
	}
	return true
}

// BlockSet is a set of one graph's blocks, one bit per block ID.
type BlockSet []uint64

// Has reports whether b is in the set.
func (s BlockSet) Has(b *cfg.Block) bool { return s[b.ID/64]&(1<<(b.ID%64)) != 0 }

func (s BlockSet) add(b *cfg.Block) { s[b.ID/64] |= 1 << (b.ID % 64) }

// IDs returns the members' block IDs in increasing order.
func (s BlockSet) IDs() []int {
	var ids []int
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			ids = append(ids, 64*i+bits.TrailingZeros64(w))
		}
	}
	return ids
}

// Loop is one natural loop: a back edge's target (head) plus every
// block that can reach the back edge without passing through the
// head.
type Loop struct {
	Head *cfg.Block
	// Body includes the head.
	Body BlockSet
	// BackEdges are the latch edges into the head.
	BackEdges []*cfg.Edge
}

// NaturalLoops finds the graph's natural loops from back edges
// (edges whose target dominates their source).  Loops sharing a head
// are merged, as usual.  The list is empty, not nil, when there are
// none.
func NaturalLoops(g *cfg.Graph, dom *DomTree) []*Loop {
	loops := []*Loop{}
	var work []*cfg.Block
	for _, e := range g.Edges {
		if dom.idom[e.From.ID] < 0 || !dom.Dominates(e.To, e.From) {
			continue
		}
		i := slices.IndexFunc(loops, func(l *Loop) bool { return l.Head == e.To })
		if i < 0 {
			i = len(loops)
			loops = append(loops, &Loop{Head: e.To, Body: make(BlockSet, (len(g.Blocks)+63)/64)})
			loops[i].Body.add(e.To)
		}
		l := loops[i]
		l.BackEdges = append(l.BackEdges, e)
		// Collect the body by walking predecessors from the latch.
		// Every reachable block that reaches the latch without passing
		// the head is dominated by the head; an unreachable one that
		// falls into the body is not, and stays out.
		work = append(work[:0], e.From)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if l.Body.Has(b) {
				continue
			}
			l.Body.add(b)
			for _, pe := range b.Pred {
				if dom.idom[pe.From.ID] >= 0 {
					work = append(work, pe.From)
				}
			}
		}
	}
	return loops
}

// LoopDepth returns each block's loop nesting depth by block ID (0
// outside any loop).
func LoopDepth(g *cfg.Graph, loops []*Loop) []int {
	depth := make([]int, len(g.Blocks))
	for _, l := range loops {
		for _, id := range l.Body.IDs() {
			depth[id]++
		}
	}
	return depth
}
