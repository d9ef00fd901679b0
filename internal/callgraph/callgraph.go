// Package callgraph implements the interprocedural layer the paper
// mentions but does not describe (§3: "EEL also supports
// interprocedural analysis and call graphs").  It builds a program
// call graph from the CFGs' call sites and interprocedural jumps and
// provides the analyses executable editors want from it:
//
//   - reachability from the entry point (dead-routine detection),
//   - recursion detection via strongly connected components,
//   - bottom-up (callee-first) traversal order, and
//   - program-wide free-register discovery — the facility the paper
//     promises in §3.5's footnote ("later releases of EEL will
//     provide a mechanism to free a register"): a register no
//     reachable instruction reads or writes can be handed to
//     instrumentation permanently, with no scavenging or spilling.
package callgraph

import (
	"fmt"
	"sort"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/machine"
)

// Site is one call site.
type Site struct {
	From *Node
	To   *Node // nil for indirect calls with unknown callee
	// Addr is the call instruction's address.
	Addr uint32
	// Indirect marks register calls (unknown or multi-target).
	Indirect bool
	// Tail marks interprocedural jumps (tail transfers), as opposed
	// to calls.
	Tail bool
}

// Node is one routine in the call graph.
type Node struct {
	Routine *core.Routine
	// Out lists this routine's call sites; In the sites calling it.
	Out []*Site
	In  []*Site
	// SCC is the strongly-connected-component id (callee-first
	// topological order: callees have lower ids unless recursive).
	SCC int
}

// Graph is a program call graph.
type Graph struct {
	Exec  *core.Executable
	Nodes []*Node
	// Entry is the node containing the program entry point.
	Entry *Node
	// HasIndirect reports whether any unknown-target call exists
	// (reachability is then conservative: see Reachable).
	HasIndirect bool

	byRoutine map[*core.Routine]*Node
}

// Build constructs the call graph of e (building any CFGs that do
// not exist yet, which may discover hidden routines — they are
// included).
func Build(e *core.Executable) (*Graph, error) {
	g := &Graph{Exec: e, byRoutine: map[*core.Routine]*Node{}}
	// Build every CFG first, hidden routines included.
	err := e.EachRoutine(func(r *core.Routine) error {
		n := &Node{Routine: r}
		g.byRoutine[r] = n
		g.Nodes = append(g.Nodes, n)
		if _, err := r.ControlFlowGraph(); err != nil {
			return fmt.Errorf("callgraph: %s: %w", r.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].Routine.Start < g.Nodes[j].Routine.Start })

	for _, n := range g.Nodes {
		graph, err := n.Routine.ControlFlowGraph()
		if err != nil {
			continue
		}
		for _, b := range graph.Blocks {
			if b.Kind != cfg.KindCallSurrogate {
				continue
			}
			site := &Site{From: n}
			if b.CallTarget != 0 {
				if callee := e.RoutineAt(b.CallTarget); callee != nil {
					site.To = g.byRoutine[callee]
				}
				// Find the site address from the surrogate's
				// predecessors (the call block's last instruction).
				site.Addr = callSiteAddr(b)
			} else {
				site.Indirect = true
				site.Addr = callSiteAddr(b)
				g.HasIndirect = true
			}
			n.Out = append(n.Out, site)
			if site.To != nil {
				site.To.In = append(site.To.In, site)
			}
		}
		// Interprocedural jumps (tail transfers) also link routines.
		for _, ref := range graph.OutRefs {
			if ref.IsCall {
				continue
			}
			callee := e.RoutineAt(ref.Target)
			if callee == nil || callee == n.Routine {
				continue
			}
			site := &Site{From: n, To: g.byRoutine[callee], Addr: ref.From, Tail: true}
			n.Out = append(n.Out, site)
			site.To.In = append(site.To.In, site)
		}
		// Unresolved indirect jumps can reach anywhere.
		for _, ij := range graph.IndirectJumps {
			if !ij.Resolved {
				g.HasIndirect = true
			}
		}
	}
	if entry := e.RoutineAt(e.StartAddress()); entry != nil {
		g.Entry = g.byRoutine[entry]
	}
	g.computeSCC()
	return g, nil
}

// callSiteAddr returns the call instruction address feeding a
// surrogate block.
func callSiteAddr(surr *cfg.Block) uint32 {
	b := surr
	for len(b.Pred) > 0 {
		p := b.Pred[0].From
		if last := p.Last(); last != nil && last.MI.Category().IsCall() {
			return last.Addr
		}
		if p.Kind != cfg.KindDelaySlot {
			break
		}
		b = p
	}
	return 0
}

// Node returns the graph node for r, or nil.
func (g *Graph) Node(r *core.Routine) *Node { return g.byRoutine[r] }

// Reachable returns the set of routines reachable from the entry
// point.  When the program contains calls with unknown targets, every
// routine whose address escapes analysis could be a callee, so the
// result is conservatively the full node set (flagged by
// HasIndirect); otherwise it is the true transitive closure.
func (g *Graph) Reachable() map[*Node]bool {
	out := map[*Node]bool{}
	if g.HasIndirect {
		for _, n := range g.Nodes {
			out[n] = true
		}
		return out
	}
	if g.Entry == nil {
		return out
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if out[n] {
			return
		}
		out[n] = true
		for _, s := range n.Out {
			if s.To != nil {
				walk(s.To)
			}
		}
	}
	walk(g.Entry)
	return out
}

// DeadRoutines returns routines no call path reaches (empty when
// indirect calls make reachability conservative).
func (g *Graph) DeadRoutines() []*Node {
	reach := g.Reachable()
	var dead []*Node
	for _, n := range g.Nodes {
		if !reach[n] {
			dead = append(dead, n)
		}
	}
	return dead
}

// computeSCC runs Tarjan's algorithm, numbering components in
// reverse topological (callee-first) order.
func (g *Graph) computeSCC() {
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	next := 0
	comp := 0

	var strong func(n *Node)
	strong = func(n *Node) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, s := range n.Out {
			m := s.To
			if m == nil {
				continue
			}
			if _, seen := index[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if onStack[m] && index[m] < low[n] {
				low[n] = index[m]
			}
		}
		if low[n] == index[n] {
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				m.SCC = comp
				if m == n {
					break
				}
			}
			comp++
		}
	}
	for _, n := range g.Nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
}

// Recursive reports whether n participates in recursion (its SCC has
// more than one member, or it calls itself).
func (g *Graph) Recursive(n *Node) bool {
	for _, s := range n.Out {
		if s.To == n {
			return true
		}
		if s.To != nil && s.To.SCC == n.SCC {
			return true
		}
	}
	return false
}

// BottomUp returns the nodes callee-first: every non-recursive callee
// precedes its callers.
func (g *Graph) BottomUp() []*Node {
	out := append([]*Node(nil), g.Nodes...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].SCC < out[j].SCC })
	return out
}

// FreeRegisters returns integer registers that no instruction of any
// reachable routine reads or writes — registers a tool may claim for
// the whole program without scavenging or spilling (the §3.5
// footnote's promised mechanism).  Only the calling convention's
// Scavengeable set is offered, never its stack/frame/link registers
// or the editor's reserved pair.
func (g *Graph) FreeRegisters() machine.RegSet {
	var used machine.RegSet
	free := machine.ABIOf(g.Exec.Dec).Scavengeable()
	for n := range g.Reachable() {
		graph, err := n.Routine.ControlFlowGraph()
		if err != nil {
			// Unanalyzable routine: assume it uses everything.
			return machine.RegSet{}
		}
		if graph.HasData || !graph.Complete {
			// Unknown code paths could touch anything.
			return machine.RegSet{}
		}
		for _, b := range graph.Blocks {
			for _, in := range b.Insts {
				used = used.Union(in.MI.Reads()).Union(in.MI.Writes())
			}
		}
	}
	return free.Minus(used)
}
