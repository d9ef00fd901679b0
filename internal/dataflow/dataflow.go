// Package dataflow provides EEL's standard CFG analyses (paper
// §3.3): dominators, natural loops, live registers (including
// condition codes, which enables the Blizzard optimization of §5),
// and the backward slicing that resolves indirect jumps to their
// dispatch tables.
package dataflow

import (
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
	stack := []frame{{b: g.Entry}}
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

// Dominators computes each block's immediate dominator using the
// Cooper-Harvey-Kennedy iterative algorithm.  The entry block's idom
// is itself; unreachable blocks have nil.
func Dominators(g *cfg.Graph) map[*cfg.Block]*cfg.Block {
	rpo := ReversePostorder(g)
	index := make(map[*cfg.Block]int, len(rpo))
	for i, b := range rpo {
		index[b] = i
	}
	idom := make(map[*cfg.Block]*cfg.Block, len(rpo))
	idom[g.Entry] = g.Entry
	intersect := func(a, b *cfg.Block) *cfg.Block {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == g.Entry {
				continue
			}
			var newIdom *cfg.Block
			for _, e := range b.Pred {
				p := e.From
				if idom[p] == nil {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != nil && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under idom.
func Dominates(idom map[*cfg.Block]*cfg.Block, a, b *cfg.Block) bool {
	for {
		if b == a {
			return true
		}
		next := idom[b]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// Loop is one natural loop: a back edge's target (head) plus every
// block that can reach the back edge without passing through the
// head.
type Loop struct {
	Head *cfg.Block
	// Body includes the head.
	Body map[*cfg.Block]bool
	// BackEdges are the latch edges into the head.
	BackEdges []*cfg.Edge
}

// NaturalLoops finds the graph's natural loops from back edges
// (edges whose target dominates their source).  Loops sharing a head
// are merged, as usual.
func NaturalLoops(g *cfg.Graph, idom map[*cfg.Block]*cfg.Block) []*Loop {
	byHead := map[*cfg.Block]*Loop{}
	var order []*cfg.Block
	for _, e := range g.Edges {
		if idom[e.From] == nil || !Dominates(idom, e.To, e.From) {
			continue
		}
		l := byHead[e.To]
		if l == nil {
			l = &Loop{Head: e.To, Body: map[*cfg.Block]bool{e.To: true}}
			byHead[e.To] = l
			order = append(order, e.To)
		}
		l.BackEdges = append(l.BackEdges, e)
		// Collect the body by walking predecessors from the latch.
		work := []*cfg.Block{e.From}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			if l.Body[b] {
				continue
			}
			l.Body[b] = true
			for _, pe := range b.Pred {
				work = append(work, pe.From)
			}
		}
	}
	loops := make([]*Loop, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHead[h])
	}
	return loops
}

// LoopDepth returns each block's loop nesting depth (0 outside any
// loop).
func LoopDepth(loops []*Loop) map[*cfg.Block]int {
	depth := map[*cfg.Block]int{}
	for _, l := range loops {
		for b := range l.Body {
			depth[b]++
		}
	}
	return depth
}
