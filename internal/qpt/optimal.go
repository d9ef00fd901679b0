package qpt

// Optimal edge profiling, the algorithm of qpt's companion paper
// (Ball & Larus, "Optimally Profiling and Tracing Programs", TOPLAS
// 1994 — the paper's reference [4] and EEL's first application):
// counters go only on edges *outside* a maximum spanning tree of the
// CFG (weighted by estimated execution frequency), and the remaining
// edge counts are derived afterward from flow conservation.  This is
// why qpt wanted CFG edges, not just blocks (§3.3: "the initial
// application of EEL, qpt, required CFGs to implement efficient
// profiling ... by placing instrumentation on CFG edges").

import (
	"fmt"
	"sort"

	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/sim"
)

// flowEdge is an edge of the circulation graph: every CFG edge plus
// one virtual Exit→Entry edge that closes the flow.
type flowEdge struct {
	e       *cfg.Edge // nil for the virtual edge
	from    *cfg.Block
	to      *cfg.Block
	virtual bool
	// countable edges may carry a counter.
	countable bool
	weight    float64
	inTree    bool
	counter   uint32 // counter address when instrumented
}

// RoutineProfile is one routine's optimal instrumentation.
type RoutineProfile struct {
	Routine *core.Routine
	Graph   *cfg.Graph
	// Dense marks routines where the spanning-tree placement was
	// infeasible and every editable branch edge was counted instead.
	Dense bool
	edges []*flowEdge
	// Instrumented is the number of counters placed.
	Instrumented int
	// TotalEdges is the number of real CFG edges.
	TotalEdges int
}

// OptimalResult is the whole program's optimal instrumentation.
type OptimalResult struct {
	Routines []*RoutineProfile
	// Counters / Edges aggregate placement totals (experimentally:
	// counters ≪ edges, the Ball-Larus saving).
	Counters, Edges int
}

// InstrumentOptimal places edge counters using the spanning-tree
// method.  Derived counts for every CFG edge are recovered with
// RoutineProfile.DeriveCounts after execution.
func InstrumentOptimal(e *core.Executable) (*OptimalResult, error) {
	res := &OptimalResult{}
	err := e.EachRoutine(func(r *core.Routine) error {
		g, err := r.ControlFlowGraph()
		if err != nil {
			return fmt.Errorf("qpt: %s: %w", r.Name, err)
		}
		rp, err := buildProfile(e, r, g)
		if err != nil {
			return err
		}
		res.Routines = append(res.Routines, rp)
		res.Counters += rp.Instrumented
		res.Edges += rp.TotalEdges
		return r.ProduceEditedRoutine()
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// eligible reports whether the spanning-tree method applies: flow
// conservation must hold at run time, which rules out routines that
// can stop mid-block (system calls) or with unknown control flow.
func eligible(g *cfg.Graph) bool {
	if g.HasData || !g.Complete {
		return false
	}
	for _, b := range g.Blocks {
		for _, in := range b.Insts {
			if in.MI.Category() == machine.CatSystem {
				return false
			}
		}
	}
	return true
}

// buildProfile chooses and places counters for one routine.
func buildProfile(e *core.Executable, r *core.Routine, g *cfg.Graph) (*RoutineProfile, error) {
	rp := &RoutineProfile{Routine: r, Graph: g, TotalEdges: len(g.Edges)}
	if !eligible(g) {
		return denseFallback(e, r, g, rp)
	}
	// Build the circulation graph.
	loops := dataflow.NaturalLoops(g, dataflow.Dominators(g))
	depth := dataflow.LoopDepth(g, loops)
	for _, edge := range g.Edges {
		fe := &flowEdge{e: edge, from: edge.From, to: edge.To}
		fe.countable = !edge.Uneditable &&
			edge.Kind != cfg.EdgeEntry && edge.Kind != cfg.EdgeExit
		d := min(max(depth[edge.From.ID], depth[edge.To.ID]), 6)
		fe.weight = pow10(d)
		if !fe.countable {
			fe.weight = 1e12 // force into the tree
		}
		rp.edges = append(rp.edges, fe)
	}
	rp.edges = append(rp.edges, &flowEdge{
		from: g.Exit, to: g.Entry, virtual: true, weight: 1e12,
	})

	// Kruskal maximum spanning tree over the undirected view.
	sorted := append([]*flowEdge(nil), rp.edges...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].weight > sorted[j].weight })
	uf := newUnionFind(len(g.Blocks))
	for _, fe := range sorted {
		if uf.union(fe.from.ID, fe.to.ID) {
			fe.inTree = true
		}
	}
	// Every non-tree edge must be countable, or the method fails.
	for _, fe := range rp.edges {
		if !fe.inTree && !fe.countable {
			return denseFallback(e, r, g, rp)
		}
	}
	// Place counters on non-tree edges.
	for _, fe := range rp.edges {
		if fe.inTree {
			continue
		}
		addr := e.AllocData(4)
		snip, err := CounterSnippet(addr)
		if err != nil {
			return nil, err
		}
		if err := r.AddCodeAlong(fe.e, snip); err != nil {
			return nil, fmt.Errorf("qpt: optimal placement on uneditable edge: %w", err)
		}
		fe.counter = addr
		rp.Instrumented++
	}
	return rp, nil
}

// denseFallback instruments every editable branch edge (the
// Figure 1 placement) for routines where the tree method is unsound.
func denseFallback(e *core.Executable, r *core.Routine, g *cfg.Graph, rp *RoutineProfile) (*RoutineProfile, error) {
	rp.Dense = true
	rp.edges = nil
	for _, b := range g.Blocks {
		if len(b.Succ) <= 1 || b.Kind != cfg.KindNormal {
			continue
		}
		for _, edge := range b.Succ {
			if edge.Uneditable {
				continue
			}
			addr := e.AllocData(4)
			snip, err := CounterSnippet(addr)
			if err != nil {
				return nil, err
			}
			if err := r.AddCodeAlong(edge, snip); err != nil {
				return nil, err
			}
			rp.edges = append(rp.edges, &flowEdge{e: edge, from: edge.From, to: edge.To, countable: true, counter: addr})
			rp.Instrumented++
		}
	}
	return rp, nil
}

// DeriveCounts recovers every CFG edge's execution count from the
// instrumented counters by flow conservation (leaf elimination over
// the spanning tree).  For Dense routines it returns only the
// directly counted edges.
func (rp *RoutineProfile) DeriveCounts(mem *sim.Memory) (map[*cfg.Edge]uint64, error) {
	out := map[*cfg.Edge]uint64{}
	if rp.Dense {
		for _, fe := range rp.edges {
			out[fe.e] = uint64(mem.Read32(fe.counter))
		}
		return out, nil
	}
	// rp.edges holds the CFG's edges in ID order and then the virtual
	// edge, so counts are kept by edge ID: known[i] once ok[i].
	known, ok := make([]uint64, len(rp.edges)), make([]bool, len(rp.edges))
	for i, fe := range rp.edges {
		if !fe.inTree {
			known[i], ok[i] = uint64(mem.Read32(fe.counter)), true
		}
	}
	// Leaf elimination: a block with exactly one unknown incident
	// edge determines it by conservation (in-sum == out-sum, signed).
	incident := make([][]int, len(rp.Graph.Blocks)) // edge indexes by block ID
	for i, fe := range rp.edges {
		incident[fe.from.ID] = append(incident[fe.from.ID], i)
		incident[fe.to.ID] = append(incident[fe.to.ID], i)
	}
	for changed := true; changed; {
		changed = false
		for blk, edges := range incident {
			unknown := -1
			bal := int64(0)
			solvable := true
			for _, i := range edges {
				if !ok[i] {
					if unknown >= 0 {
						solvable = false
						break
					}
					unknown = i
					continue
				}
				if rp.edges[i].to.ID == blk {
					bal += int64(known[i])
				}
				if rp.edges[i].from.ID == blk {
					bal -= int64(known[i])
				}
			}
			if !solvable || unknown < 0 {
				continue
			}
			// The unknown edge balances the block's flow.
			v := bal
			if rp.edges[unknown].to.ID == blk {
				v = -bal
			}
			if v < 0 {
				return nil, fmt.Errorf("qpt: negative derived count %d in %s (conservation violated)", v, rp.Routine.Name)
			}
			known[unknown], ok[unknown] = uint64(v), true
			changed = true
		}
	}
	for i, fe := range rp.edges {
		if !ok[i] {
			return nil, fmt.Errorf("qpt: underdetermined flow in %s", rp.Routine.Name)
		}
		if fe.e != nil {
			out[fe.e] = known[i]
		}
	}
	return out, nil
}

func pow10(n int) float64 {
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 10
	}
	return v
}

// unionFind is a tiny disjoint-set structure for Kruskal.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were
// distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return false
	}
	u.parent[ra] = rb
	return true
}
