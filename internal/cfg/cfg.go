// Package cfg builds EEL's control-flow graphs (paper §3.3).  A CFG
// normalizes away the target machine's internal control flow: delayed
// branches' slot instructions are hoisted into their own
// single-instruction blocks on the appropriate edges (an annulled
// branch's slot only on the taken edge — Fig 3; a non-annulled
// branch's slot duplicated on both edges), calls are followed by a
// zero-length "call surrogate" block standing for the callee's
// execution, and a virtual entry/exit pair absorbs multiple entry
// points and every way out of the routine.  After normalization a
// tool can add code before or after almost any instruction, or along
// any edge, without knowing the machine has delay slots at all.
//
// Blocks and edges that would require interprocedural editing (the
// delay slot after a call, the surrogate itself, the slot of a
// return or unresolved indirect jump) are marked uneditable; the
// paper reports 15–20 % of blocks and edges are, and experiment E4
// measures the same fraction here.
package cfg

import (
	"fmt"

	"eel/internal/machine"
)

// BlockKind distinguishes the paper's block flavours (§5 footnote:
// "EEL's 12,774 delay slot blocks, 920 CFG entry/exit blocks, and
// 1,942 call surrogate blocks").
type BlockKind int

// Block kinds.
const (
	// KindNormal blocks hold straight-line instructions.
	KindNormal BlockKind = iota
	// KindEntry is the routine's virtual entry (zero-length).
	KindEntry
	// KindExit is the routine's virtual exit (zero-length).
	KindExit
	// KindDelaySlot holds one hoisted delay-slot instruction.
	KindDelaySlot
	// KindCallSurrogate is the zero-length placeholder for a
	// callee's execution between a call and its return point.
	KindCallSurrogate
)

var blockKindNames = [...]string{"normal", "entry", "exit", "delayslot", "callsurrogate"}

// String returns the kind's short name.
func (k BlockKind) String() string {
	if int(k) < len(blockKindNames) {
		return blockKindNames[k]
	}
	return fmt.Sprintf("blockkind(%d)", int(k))
}

// EdgeKind classifies edges.
type EdgeKind int

// Edge kinds.
const (
	// EdgeFall is fall-through control flow.
	EdgeFall EdgeKind = iota
	// EdgeTaken is a taken branch or jump.
	EdgeTaken
	// EdgeCall links a call block to its surrogate.
	EdgeCall
	// EdgeReturn links a surrogate to the call's return point, or a
	// return's slot to the exit block.
	EdgeReturn
	// EdgeEntry links the virtual entry to an entry point.
	EdgeEntry
	// EdgeExit links interprocedural transfers to the virtual exit.
	EdgeExit
)

var edgeKindNames = [...]string{"fall", "taken", "call", "return", "entry", "exit"}

// String returns the kind's short name.
func (k EdgeKind) String() string {
	if int(k) < len(edgeKindNames) {
		return edgeKindNames[k]
	}
	return fmt.Sprintf("edgekind(%d)", int(k))
}

// Inst is a machine-independent instruction at a text address.
type Inst struct {
	Addr uint32
	MI   *machine.Inst
}

// Block is a single-entry, single-exit instruction sequence.
type Block struct {
	// ID is the block's index in its graph's Blocks, so per-block
	// analysis results can live in slices.
	ID   int
	Kind BlockKind
	// Insts is empty for entry/exit/surrogate blocks and holds
	// exactly one instruction for delay-slot blocks.
	Insts []Inst
	// Succ and Pred are the out- and in-edges, in creation order.
	Succ []*Edge
	Pred []*Edge
	// Uneditable marks blocks a tool may not modify (paper §3.3).
	Uneditable bool
	// CallTarget is the callee address for surrogate blocks of
	// direct calls (0 when indirect/unknown).
	CallTarget uint32
	// HasData marks a block terminated by a reachable invalid word:
	// EEL concludes the routine contains data here (§3.1 step 4).
	HasData bool
}

// Start returns the block's first instruction address (0 for
// synthetic blocks).
func (b *Block) Start() uint32 {
	if len(b.Insts) == 0 {
		return 0
	}
	return b.Insts[0].Addr
}

// Last returns the block's final instruction, or nil.
func (b *Block) Last() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	return &b.Insts[len(b.Insts)-1]
}

// Edge is one control-flow edge.
type Edge struct {
	ID         int
	From, To   *Block
	Kind       EdgeKind
	Uneditable bool
}

// IndirectJump records an unresolved register-indirect jump; the
// slicing analysis (internal/dataflow) later resolves it to a
// dispatch table or marks the graph incomplete.
type IndirectJump struct {
	Block *Block // block whose last instruction is the jump
	Addr  uint32 // jump instruction address
	Slot  *Block // its delay-slot block (nil if annulled/absent)
	// Resolved is set once dispatch-table analysis succeeded.
	Resolved bool
	// TableAddr/TableLen describe the dispatch table when resolved.
	TableAddr uint32
	TableLen  int
	// LiteralTarget is set for single-literal resolutions.
	Literal       bool
	LiteralTarget uint32
	// RuntimeOnly keeps the jump's run-time translation even though
	// targets are known (ablation / light-analysis mode): the
	// discovered targets materialize code and edges, but the table
	// is not rewritten and the edges are uneditable.
	RuntimeOnly bool
}

// OutRef records a control transfer that leaves the routine; the
// symbol-table refinement (paper §3.1 step 3) turns these into entry
// points and hidden-routine discoveries.
type OutRef struct {
	From   uint32 // transfer instruction address
	Target uint32
	IsCall bool
}

// Graph is one routine's control-flow graph.
type Graph struct {
	// Start and End bound the routine in the text segment.
	Start, End uint32
	// Entries are the routine's entry-point addresses.
	Entries []uint32

	Blocks []*Block
	Edges  []*Edge
	Entry  *Block
	Exit   *Block

	// ByAddr maps an original instruction address to the normal
	// block that starts there.
	ByAddr map[uint32]*Block

	// Complete is false when some indirect jump could not be
	// resolved statically; editing then needs run-time translation
	// (paper §3.3).
	Complete bool

	// IndirectJumps lists register-indirect jumps for the slicing
	// pass.
	IndirectJumps []*IndirectJump

	// OutRefs lists interprocedural transfers out of this routine.
	OutRefs []OutRef

	// HasData reports that a reachable path hit an invalid word.
	HasData bool

	// Warnings records analysis anomalies (e.g. a control transfer
	// in a delay slot, treated as data).
	Warnings []string

	// UnreachableTail is the address of the first never-reached
	// instruction after the last reachable one, when a gap suggests
	// a hidden routine follows (0 if none): §3.1 step 4.
	UnreachableTail uint32

	// ExternalReads lists image addresses outside [Start, End) whose
	// words the indirect-jump resolver consulted while building this
	// graph (dispatch tables and literal pointer slots living outside
	// the routine's own extent).  A memoized analysis is reusable only
	// while those words are unchanged; the analysis cache validates
	// them on every hit.
	ExternalReads []uint32

	dec       machine.Decoder
	abi       *machine.ABI
	blockSlab []Block // backs Blocks
	edgeSlab  []Edge  // backs Edges
}

// Decoder returns the decoder the graph was built with.
func (g *Graph) Decoder() machine.Decoder { return g.dec }

// ABI returns the calling convention of the decoder's machine,
// resolved from the machine registry once, when the decoder was
// installed; it is nil for a machine no package registered.
func (g *Graph) ABI() *machine.ABI { return g.abi }

// SetDecoder installs the decoder on a graph reconstructed from a
// serialized form (the persistent analysis cache); graphs built by
// Build carry their decoder already.
func (g *Graph) SetDecoder(d machine.Decoder) { g.dec, g.abi = d, machine.ABIOf(d) }

// Reserve sizes the graph's block and edge slabs.  Blocks and edges
// live in per-graph arrays rather than one allocation each; a full
// slab is replaced by a fresh one, never moved, so the addresses
// already handed out stay valid and a short reservation only costs a
// second array.
func (g *Graph) Reserve(blocks, edges int) {
	g.blockSlab, g.Blocks = make([]Block, 0, blocks), make([]*Block, 0, blocks)
	g.edgeSlab, g.Edges = make([]Edge, 0, edges), make([]*Edge, 0, edges)
}

// NewBlock allocates and registers a block; its ID is its index in
// Blocks.
func (g *Graph) NewBlock(kind BlockKind) *Block {
	if len(g.blockSlab) == cap(g.blockSlab) {
		g.blockSlab = make([]Block, 0, 2*cap(g.blockSlab)+8)
	}
	g.blockSlab = append(g.blockSlab, Block{ID: len(g.Blocks), Kind: kind})
	b := &g.blockSlab[len(g.blockSlab)-1]
	g.Blocks = append(g.Blocks, b)
	return b
}

// NewEdge registers an edge from→to.  Blocks' Succ and Pred lists are
// filled by Link once every edge exists.
func (g *Graph) NewEdge(from, to *Block, kind EdgeKind, uneditable bool) *Edge {
	if len(g.edgeSlab) == cap(g.edgeSlab) {
		g.edgeSlab = make([]Edge, 0, 2*cap(g.edgeSlab)+8)
	}
	g.edgeSlab = append(g.edgeSlab, Edge{ID: len(g.Edges), From: from, To: to, Kind: kind, Uneditable: uneditable})
	e := &g.edgeSlab[len(g.edgeSlab)-1]
	g.Edges = append(g.Edges, e)
	return e
}

// Link fills every block's Succ and Pred with its edges in creation
// order.  The lists are capacity-capped windows on one per-graph
// array, so appending to one copies it instead of overwriting a
// neighbour's.
func (g *Graph) Link() {
	n := len(g.Blocks)
	deg := make([]int, 2*n) // out-degrees, then in-degrees, by block ID
	for _, e := range g.Edges {
		deg[e.From.ID]++
		deg[n+e.To.ID]++
	}
	adj := make([]*Edge, 2*len(g.Edges))
	at := 0
	for i, b := range g.Blocks {
		b.Succ = adj[at : at : at+deg[i]]
		at += deg[i]
		b.Pred = adj[at : at : at+deg[n+i]]
		at += deg[n+i]
	}
	for _, e := range g.Edges {
		e.From.Succ = append(e.From.Succ, e)
		e.To.Pred = append(e.To.Pred, e)
	}
}

// Stats summarizes block/edge composition (experiments E4, E7).
type Stats struct {
	Blocks          int
	NormalBlocks    int
	DelaySlotBlocks int
	EntryExitBlocks int
	CallSurrogates  int
	Edges           int
	UneditableB     int
	UneditableE     int
}

// Stats computes the graph's composition.
func (g *Graph) Stats() Stats {
	var s Stats
	s.Blocks = len(g.Blocks)
	s.Edges = len(g.Edges)
	for _, b := range g.Blocks {
		switch b.Kind {
		case KindNormal:
			s.NormalBlocks++
		case KindDelaySlot:
			s.DelaySlotBlocks++
		case KindEntry, KindExit:
			s.EntryExitBlocks++
		case KindCallSurrogate:
			s.CallSurrogates++
		}
		if b.Uneditable {
			s.UneditableB++
		}
	}
	for _, e := range g.Edges {
		if e.Uneditable {
			s.UneditableE++
		}
	}
	return s
}
