// Package eel is a Go implementation of EEL (Executable Editing
// Library), the machine-independent executable editing system of
// Larus and Schnarr (PLDI 1995).  EEL lets a tool analyze and modify
// a compiled program — without source code, compiler, or linker
// cooperation — through five abstractions:
//
//   - Executable: code and data from an executable file, behind a
//     format-independent container layer, with the paper's
//     symbol-table refinement (hidden routines, multiple entry
//     points, stripped-executable recovery).
//   - Routine: a named text-segment entity and the gateway to
//     analysis and editing.
//   - CFG: the routine's control-flow graph, normalized so delayed
//     branches, annulled slots, and calls present no machine detail
//     to tools (delay-slot instructions hoisted onto edges, call
//     surrogate blocks, virtual entry/exit).
//   - Inst: a machine-independent instruction with category,
//     register read/write sets, memory width, and static targets —
//     derived by the spawn machine-description compiler from a
//     ~150-line description rather than handwritten code.
//   - Snippet: machine-specific foreign code with
//     liveness-driven register scavenging, spill wrapping, and
//     placement call-backs.
//
// A minimal branch-counting tool (the paper's Figure 1):
//
//	exec, _ := eel.Open("a.out")
//	exec.EachRoutine(func(r *eel.Routine) error { // hidden routines too
//		g, _ := r.ControlFlowGraph()
//		for _, b := range g.Blocks {
//			if len(b.Succ) > 1 {
//				for _, e := range b.Succ {
//					r.AddCodeAlong(e, counterSnippet(next()))
//				}
//			}
//		}
//		return r.ProduceEditedRoutine()
//	})
//	exec.WriteEditedExecutable("a.out.count")
//
// The machine layer targets SPARC V8; programs execute on the
// bundled emulator (eel/internal/sim), which runs directly off the
// same machine description.
package eel

import (
	_ "eel/internal/aout"  // register the a.out container format
	_ "eel/internal/elf32" // register the ELF32 container format

	"eel/internal/binfile"
	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/pipeline"
)

// Core abstractions (paper §3).
type (
	// Executable is an opened program image (§3.1).
	Executable = core.Executable
	// Routine is a text-segment entity (§3.2).
	Routine = core.Routine
	// Snippet is foreign code to insert (§3.5).
	Snippet = core.Snippet
	// ScavengeStats counts snippet register-allocation outcomes.
	ScavengeStats = core.ScavengeStats

	// CFG is a routine's normalized control-flow graph (§3.3).
	CFG = cfg.Graph
	// Block is a basic block.
	Block = cfg.Block
	// Edge is a control-flow edge.
	Edge = cfg.Edge
	// BlockKind distinguishes normal, entry/exit, delay-slot, and
	// call-surrogate blocks.
	BlockKind = cfg.BlockKind
	// EdgeKind distinguishes fall/taken/call/return/entry/exit
	// edges.
	EdgeKind = cfg.EdgeKind
	// CFGInst is an instruction at a text address.
	CFGInst = cfg.Inst
	// IndirectJump describes a register-indirect jump and its
	// dispatch-table resolution.
	IndirectJump = cfg.IndirectJump

	// Inst is a machine-independent instruction (§3.4).
	Inst = machine.Inst
	// Category classifies instructions.
	Category = machine.Category
	// Reg names a register.
	Reg = machine.Reg
	// RegSet is a register set.
	RegSet = machine.RegSet

	// Liveness holds live-register analysis results.
	Liveness = dataflow.Liveness
	// DomTree is a CFG's dominator tree, indexed by block ID.
	DomTree = dataflow.DomTree
	// Loop is a natural loop.
	Loop = dataflow.Loop

	// File is a format-independent executable image.
	File = binfile.File
	// Section is one loadable section.
	Section = binfile.Section
	// Symbol is one symbol-table entry.
	Symbol = binfile.Symbol

	// AnalysisOptions configures AnalyzeAll (zero value: GOMAXPROCS
	// workers, every analysis stage, no cache).
	AnalysisOptions = pipeline.Options
	// AnalysisResult is a whole-executable analysis with stats.
	AnalysisResult = pipeline.Result
	// RoutineAnalysis is one routine's analysis bundle.
	RoutineAnalysis = pipeline.RoutineAnalysis
	// AnalysisStats reports pipeline timing, throughput, and cache
	// behaviour.
	AnalysisStats = pipeline.Stats
	// AnalysisCache memoizes routine analyses across runs,
	// content-addressed by the routine's machine words.
	AnalysisCache = pipeline.Cache
)

// Block kinds.
const (
	KindNormal        = cfg.KindNormal
	KindEntry         = cfg.KindEntry
	KindExit          = cfg.KindExit
	KindDelaySlot     = cfg.KindDelaySlot
	KindCallSurrogate = cfg.KindCallSurrogate
)

// Edge kinds.
const (
	EdgeFall   = cfg.EdgeFall
	EdgeTaken  = cfg.EdgeTaken
	EdgeCall   = cfg.EdgeCall
	EdgeReturn = cfg.EdgeReturn
	EdgeEntry  = cfg.EdgeEntry
	EdgeExit   = cfg.EdgeExit
)

// Instruction categories (§3.4).
const (
	CatInvalid      = machine.CatInvalid
	CatCompute      = machine.CatCompute
	CatBranch       = machine.CatBranch
	CatJumpDirect   = machine.CatJumpDirect
	CatJumpIndirect = machine.CatJumpIndirect
	CatCallDirect   = machine.CatCallDirect
	CatCallIndirect = machine.CatCallIndirect
	CatReturn       = machine.CatReturn
	CatLoad         = machine.CatLoad
	CatStore        = machine.CatStore
	CatLoadStore    = machine.CatLoadStore
	CatSystem       = machine.CatSystem
)

// Open reads, refines, and wraps the executable at path.
func Open(path string) (*Executable, error) {
	e, err := core.OpenExecutable(path)
	if err != nil {
		return nil, err
	}
	if err := e.ReadContents(); err != nil {
		return nil, err
	}
	return e, nil
}

// Load wraps an already-parsed image and refines its symbol table.
func Load(f *File) (*Executable, error) {
	e, err := core.NewExecutable(f)
	if err != nil {
		return nil, err
	}
	if err := e.ReadContents(); err != nil {
		return nil, err
	}
	return e, nil
}

// ReadImage parses raw executable bytes (auto-detecting the format).
func ReadImage(data []byte) (*File, error) { return binfile.Read(data) }

// WriteImage serializes an image in its declared format.
func WriteImage(f *File) ([]byte, error) { return binfile.Write(f) }

// WriteImageFile serializes an image to a file.
func WriteImageFile(path string, f *File) error { return binfile.WriteFile(path, f) }

// NewSnippet builds a snippet from machine words with the given
// placeholder registers.
func NewSnippet(body []uint32, alloc []Reg) *Snippet {
	return core.NewSnippet(body, alloc)
}

// AnalyzeAll analyzes every routine of exec concurrently — CFG
// construction with indirect-jump slicing, liveness, dominators, and
// natural loops — using a bounded worker pool, and returns one bundle
// per routine in routine order.  Results are identical to a
// sequential walk for any worker count; hidden routines discovered
// during analysis are included.  See pipeline.Options for worker
// count, stage selection, and memoization.
func AnalyzeAll(exec *Executable, opts AnalysisOptions) (*AnalysisResult, error) {
	return pipeline.AnalyzeAll(exec, opts)
}

// NewAnalysisCache builds a bounded analysis cache for
// AnalysisOptions.Cache (capacity <= 0 selects the default).
func NewAnalysisCache(capacity int) *AnalysisCache { return pipeline.NewCache(capacity) }

// ComputeLiveness runs live-register analysis over g with the
// standard exit convention.
func ComputeLiveness(g *CFG) *Liveness {
	return dataflow.ComputeLiveness(g)
}

// Dominators computes g's dominator tree.
func Dominators(g *CFG) *DomTree { return dataflow.Dominators(g) }

// NaturalLoops finds natural loops.
func NaturalLoops(g *CFG) []*Loop {
	return dataflow.NaturalLoops(g, dataflow.Dominators(g))
}
