package core

import (
	"fmt"
	"sort"

	"eel/internal/cfg"
	"eel/internal/dataflow"
)

// Routine is a named region of the text segment (§3.2): it records
// the entity's extent and entry points and is the interface to CFG
// construction, analysis, and editing.
type Routine struct {
	Exec *Executable
	Name string
	// Start and End bound the routine; Entries lists its entry
	// points (multiple for Fortran ENTRY and interprocedural jumps).
	Start, End uint32
	Entries    []uint32
	// Hidden marks routines discovered by analysis rather than the
	// symbol table.
	Hidden bool
	// walk is the stamp of the last Waves walk that passed this routine.
	walk uint32

	graph *cfg.Graph
	// live is graph's liveness when the analysis pipeline computed it
	// (InstallGraph); layout reuses it instead of solving again.
	live *dataflow.Liveness

	edgeEdits   map[*cfg.Edge][]*Snippet
	beforeEdits map[instKey][]*Snippet
	afterEdits  map[instKey][]*Snippet
	deleted     map[instKey]bool

	plan *routinePlan // measured layout, built by ProduceEditedRoutine
}

type instKey struct {
	b   *cfg.Block
	idx int
}

// Size returns the routine's extent in bytes.
func (r *Routine) Size() uint32 { return r.End - r.Start }

// addEntry records an additional entry point (invalidating a cached
// graph, since reachability changes).
func (r *Routine) addEntry(a uint32) {
	for _, e := range r.Entries {
		if e == a {
			return
		}
	}
	r.Entries = append(r.Entries, a)
	r.graph, r.live = nil, nil
}

// ControlFlowGraph builds (and caches) the routine's normalized CFG.
// Indirect jumps are resolved by the backward-slicing pass and the
// graph rebuilt with their dispatch-table targets until a fixpoint —
// the paper's two-stage construction (§3.3).  Hidden routines
// discovered from unreachable tails are registered with the
// executable (§3.1 stage 4).
//
// Distinct routines of one executable may build their graphs
// concurrently (internal/pipeline does): construction touches only
// this routine, read-only image data, the goroutine-safe decoder,
// and the locked routine list.  Calling it concurrently for the
// same routine is not supported.
func (r *Routine) ControlFlowGraph() (*cfg.Graph, error) {
	if r.graph != nil {
		return r.graph, nil
	}
	text := r.Exec.File.Text()
	opts := cfg.Options{
		IndirectTargets: map[uint32][]uint32{},
		Tables:          map[uint32]cfg.TableInfo{},
		ForceTranslate:  r.Exec.ForceRuntimeTranslation || r.Exec.LightAnalysis,
	}
	// Record every image address the resolver reads: words outside the
	// routine's (final) extent become the graph's ExternalReads, the
	// out-of-routine dependency set the analysis cache must validate.
	resolverReads := map[uint32]bool{}
	readWord := func(addr uint32) (uint32, bool) {
		resolverReads[addr] = true
		return r.Exec.ReadWord(addr)
	}
	var g *cfg.Graph
	for pass := 0; ; pass++ {
		var err error
		g, err = cfg.BuildWithOptions(r.Exec.Dec, r.Exec.insts, text.Addr, r.Start, r.End, r.Entries, opts)
		if err != nil {
			return nil, fmt.Errorf("core: routine %s: %w", r.Name, err)
		}
		if pass >= 8 {
			break
		}
		res := (&dataflow.Resolver{
			G:        g,
			ReadWord: readWord,
			InText:   text.Contains,
		}).AnalyzeIndirectJumps()
		progressed := false
		for addr, rr := range res {
			if rr.OK {
				// Keep only in-routine targets; a table whose
				// entries leave the routine is interprocedural.
				var targets []uint32
				for _, t := range rr.Targets {
					if t >= r.Start && t < r.End {
						targets = append(targets, t)
					}
				}
				if len(targets) > 0 {
					opts.IndirectTargets[addr] = targets
					opts.Tables[addr] = rr.Table
					progressed = true
				}
			}
		}
		if !progressed {
			break
		}
		// Rebuild with the resolved targets; newly reachable code
		// may contain further indirect jumps, so iterate until the
		// resolver finds nothing new.
	}
	if tail := g.UnreachableTail; tail != 0 {
		r.Exec.addHiddenTail(r, tail)
		// Rebuild with the shrunken extent so the tail is not part
		// of this routine.
		g2, err := cfg.BuildWithOptions(r.Exec.Dec, r.Exec.insts, text.Addr, r.Start, r.End, r.Entries, opts)
		if err == nil {
			g = g2
		}
	}
	for addr := range resolverReads {
		if addr < g.Start || addr >= g.End {
			g.ExternalReads = append(g.ExternalReads, addr)
		}
	}
	sort.Slice(g.ExternalReads, func(i, j int) bool { return g.ExternalReads[i] < g.ExternalReads[j] })
	r.graph, r.live = g, nil
	return g, nil
}

// InstallGraph adopts a CFG and, when non-nil, its liveness
// (dataflow.ComputeLiveness) as this routine's, so ControlFlowGraph
// and ProduceEditedRoutine reuse them instead of recomputing.  The
// analysis pipeline calls this on a cache hit and after solving
// liveness on a miss; the graph must describe this routine's extent
// and entry points.
func (r *Routine) InstallGraph(g *cfg.Graph, lv *dataflow.Liveness) { r.graph, r.live = g, lv }

// DeleteControlFlowGraph drops the cached CFG and any accumulated
// edits (the paper's delete_control_flow_graph, used to reclaim
// memory after producing an edited routine).
func (r *Routine) DeleteControlFlowGraph() {
	r.graph, r.live = nil, nil
	r.edgeEdits = nil
	r.beforeEdits = nil
	r.afterEdits = nil
	r.deleted = nil
}

// editsInit lazily allocates the edit maps.
func (r *Routine) editsInit() {
	if r.edgeEdits == nil {
		r.edgeEdits = map[*cfg.Edge][]*Snippet{}
		r.beforeEdits = map[instKey][]*Snippet{}
		r.afterEdits = map[instKey][]*Snippet{}
		r.deleted = map[instKey]bool{}
	}
}

// AddCodeAlong attaches a snippet to a CFG edge (Fig 1's
// e->add_code_along).  Edits accumulate without changing the CFG and
// take effect at ProduceEditedRoutine (§3.3.1's batch editing).
func (r *Routine) AddCodeAlong(e *cfg.Edge, s *Snippet) error {
	if e.Uneditable {
		return fmt.Errorf("core: edge %s→%s is uneditable", e.From.Kind, e.To.Kind)
	}
	r.editsInit()
	r.edgeEdits[e] = append(r.edgeEdits[e], s)
	return nil
}

// AddCodeBefore inserts a snippet before instruction idx of block b.
func (r *Routine) AddCodeBefore(b *cfg.Block, idx int, s *Snippet) error {
	if err := r.checkInstEdit(b, idx); err != nil {
		return err
	}
	r.editsInit()
	k := instKey{b, idx}
	r.beforeEdits[k] = append(r.beforeEdits[k], s)
	return nil
}

// AddCodeAfter inserts a snippet after instruction idx of block b.
// The instruction must not end its block (machine.Inst.EndsBlock): add
// code along the outgoing edges of a control transfer instead, which
// says which path to instrument; code right after an instruction that
// annuls its successor would be annulled in the successor's place.
func (r *Routine) AddCodeAfter(b *cfg.Block, idx int, s *Snippet) error {
	if err := r.checkInstEdit(b, idx); err != nil {
		return err
	}
	if b.Insts[idx].MI.EndsBlock() {
		return fmt.Errorf("core: cannot add code after a control transfer or annul; edit its edges")
	}
	r.editsInit()
	k := instKey{b, idx}
	r.afterEdits[k] = append(r.afterEdits[k], s)
	return nil
}

// DeleteInst removes instruction idx of block b from the edited
// routine.  An instruction that ends its block cannot be deleted:
// redirect a transfer's edges instead, and an annul stays with the
// word it skips.
func (r *Routine) DeleteInst(b *cfg.Block, idx int) error {
	if err := r.checkInstEdit(b, idx); err != nil {
		return err
	}
	if b.Insts[idx].MI.EndsBlock() {
		return fmt.Errorf("core: cannot delete a control transfer or annul")
	}
	r.editsInit()
	r.deleted[instKey{b, idx}] = true
	return nil
}

func (r *Routine) checkInstEdit(b *cfg.Block, idx int) error {
	if b.Uneditable {
		return fmt.Errorf("core: block (%s at %#x) is uneditable", b.Kind, b.Start())
	}
	if idx < 0 || idx >= len(b.Insts) {
		return fmt.Errorf("core: instruction index %d out of range", idx)
	}
	return nil
}

// ProduceEditedRoutine measures the routine's edited layout:
// snippets are instantiated (register scavenging, spill wrapping)
// and every block's output position fixed, so the executable-level
// layout can assign addresses.  Actual emission happens inside
// Executable.BuildEdited once all routines are placed (edited code
// contains cross-routine references).
func (r *Routine) ProduceEditedRoutine() error {
	g, err := r.ControlFlowGraph()
	if err != nil {
		return err
	}
	plan, err := measure(r, g)
	if err != nil {
		return fmt.Errorf("core: routine %s: %w", r.Name, err)
	}
	r.plan = plan
	return nil
}
