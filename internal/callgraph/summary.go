package callgraph

import "eel/internal/machine"

// Interprocedural register-usage summaries: the analysis behind the
// paper's remark that EEL "can manipulate an entire program, which
// permits it to perform interprocedural analysis rather than
// stopping at procedure boundaries" (§1).  A routine's summary is
// the set of registers it — or anything it can transitively call —
// may read or write.  Snippet scavenging at a call site can then use
// the callee's real footprint instead of the worst-case calling
// convention (machine.ABI.CallDef), recovering dead registers across
// calls to shallow leaf routines.

// Summary is one routine's transitive register footprint.
type Summary struct {
	// Reads and Writes cover the routine and its transitive callees.
	Reads, Writes machine.RegSet
	// Exact is false when unknown control flow (indirect calls,
	// unresolved jumps, data) forced the conservative full set.
	Exact bool
}

// Summaries computes per-routine transitive register usage, solving
// the (possibly cyclic, for recursion) system by iteration over the
// callee-first order.
func (g *Graph) Summaries() map[*Node]Summary {
	out := make(map[*Node]Summary, len(g.Nodes))
	// Local footprints first.
	local := make(map[*Node]Summary, len(g.Nodes))
	for _, n := range g.Nodes {
		local[n] = localSummary(n)
		out[n] = local[n]
	}
	// Propagate callee summaries to callers until fixpoint
	// (bottom-up order converges in one pass for DAGs; recursion
	// takes a few).
	order := g.BottomUp()
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			s := out[n]
			for _, site := range n.Out {
				if site.To == nil {
					// Unknown callee: anything may be used.
					s = conservative()
					break
				}
				callee := out[site.To]
				s.Reads = s.Reads.Union(callee.Reads)
				s.Writes = s.Writes.Union(callee.Writes)
				s.Exact = s.Exact && callee.Exact
			}
			if !s.Reads.Equal(out[n].Reads) || !s.Writes.Equal(out[n].Writes) || s.Exact != out[n].Exact {
				out[n] = s
				changed = true
			}
		}
	}
	return out
}

// localSummary collects one routine's own register accesses.
func localSummary(n *Node) Summary {
	g, err := n.Routine.ControlFlowGraph()
	if err != nil || g.HasData || !g.Complete {
		return conservative()
	}
	s := Summary{Exact: true}
	for _, b := range g.Blocks {
		for _, in := range b.Insts {
			s.Reads = s.Reads.Union(in.MI.Reads())
			s.Writes = s.Writes.Union(in.MI.Writes())
		}
	}
	return s
}

func conservative() Summary {
	all := machine.RegSetFromWords(^uint64(0), ^uint64(0))
	return Summary{Reads: all, Writes: all, Exact: false}
}

// DeadAcrossCall returns registers provably dead across a direct
// call to callee: registers the callee's transitive closure neither
// reads nor writes.  Tools may scavenge these at the call's return
// point even though the calling convention says they are clobbered.
func (g *Graph) DeadAcrossCall(summaries map[*Node]Summary, callee *Node) machine.RegSet {
	s, ok := summaries[callee]
	if !ok || !s.Exact {
		return machine.RegSet{}
	}
	return machine.ABIOf(g.Exec.Dec).Scavengeable().Minus(s.Reads).Minus(s.Writes)
}
