package dataflow

import (
	"eel/internal/cfg"
	"eel/internal/machine"
)

// This file implements the paper's marquee analysis (§3.3): a
// backward slice from an indirect jump's address register that
// discovers the case-statement dispatch table the jump reads — "a
// path from the routine's entry to the jump must compute the dispatch
// table's address (or the jump would fail along the path)" — or the
// literal target of a jump-to-constant idiom.  When the slice fails,
// the jump stays unresolved and the editing layer falls back on
// run-time address translation.

// svKind is the symbolic value lattice for the slice.
type svKind int

const (
	svUnknown svKind = iota
	svConst          // a compile-time constant (sethi/or/add chains)
	svScaled         // a bounded, shifted index (sll idx, k)
	svTable          // a load from constant base + scaled index
)

type sval struct {
	kind svKind
	c    uint32 // constant value or table base
}

// maxTraceDepth bounds interblock tracing.
const maxTraceDepth = 32

// Resolver runs dispatch-table analysis over one graph.
type Resolver struct {
	// G is the graph under analysis.
	G *cfg.Graph
	// ReadWord reads a word of the program image (text or data);
	// ok=false outside mapped sections.
	ReadWord func(addr uint32) (uint32, bool)
	// InText reports whether addr lies in the read-only text
	// segment.  Loads from constant addresses fold to constants
	// only there: a load from writable data (e.g. a function-pointer
	// slot) is not a compile-time value.  When nil, no
	// constant-address load folds.
	InText func(addr uint32) bool
	// MaxTable caps dispatch-table scanning.
	MaxTable int
}

// Resolution is the outcome for one indirect jump.
type Resolution struct {
	OK      bool
	Targets []uint32
	Table   cfg.TableInfo
}

// AnalyzeIndirectJumps slices every unresolved indirect jump in g.
// The result maps jump address → resolution; the caller rebuilds the
// CFG with cfg.Options carrying the discovered targets.
func (r *Resolver) AnalyzeIndirectJumps() map[uint32]Resolution {
	if r.MaxTable == 0 {
		r.MaxTable = 4096
	}
	out := map[uint32]Resolution{}
	for _, ij := range r.G.IndirectJumps {
		if ij.Resolved {
			continue
		}
		out[ij.Addr] = r.resolve(ij)
	}
	return out
}

func (r *Resolver) resolve(ij *cfg.IndirectJump) Resolution {
	b := ij.Block
	idx := len(b.Insts) - 1
	a, ok := b.Insts[idx].MI.Addr()
	if !ok {
		return Resolution{}
	}
	v := combineAdd(r.trace(b, idx, a.Base, 0), r.operand(b, idx, a.HasIndex, a.Index, a.Disp, 0))

	switch v.kind {
	case svConst:
		// Indirect jump to a literal address.
		return Resolution{
			OK:      true,
			Targets: []uint32{v.c},
			Table:   cfg.TableInfo{Literal: true, Target: v.c},
		}
	case svTable:
		targets, n := r.scanTable(v.c, ij)
		if n == 0 {
			return Resolution{}
		}
		return Resolution{
			OK:      true,
			Targets: targets,
			Table:   cfg.TableInfo{Addr: v.c, Len: n},
		}
	}
	return Resolution{}
}

// scanTable reads dispatch-table entries at base: plausible entries
// are aligned addresses inside the routine.  A dominating bounds
// check (cmp idx, N) clamps the scan; otherwise it stops at the
// first implausible word.
func (r *Resolver) scanTable(base uint32, ij *cfg.IndirectJump) ([]uint32, int) {
	bound := r.findBound(ij.Block)
	max := r.MaxTable
	if bound > 0 && bound < max {
		max = bound
	}
	var targets []uint32
	for i := 0; i < max; i++ {
		w, ok := r.ReadWord(base + uint32(i*4))
		if !ok {
			break
		}
		if w%4 != 0 || w < r.G.Start || w >= r.G.End {
			break
		}
		targets = append(targets, w)
	}
	return targets, len(targets)
}

// findBound searches the jump's block and a short predecessor chain
// for the bounds check guarding the switch: a word that sets the
// condition codes from idx - N ("subcc idx, N").
func (r *Resolver) findBound(b *cfg.Block) int {
	for depth := 0; b != nil && depth < 4; depth++ {
		for i := len(b.Insts) - 1; i >= 0; i-- {
			mi := b.Insts[i].MI
			d, ok := mi.Def()
			if !ok || d.Op != machine.DefSub || d.HasB || !mi.Writes().Has(machine.RegPSR) {
				continue
			}
			if n := int(int32(d.K)); n >= 0 && n < 1<<20 {
				return n + 1
			}
		}
		b = singlePred(b)
	}
	return 0
}

func singlePred(b *cfg.Block) *cfg.Block {
	var p *cfg.Block
	for _, e := range b.Pred {
		if e.From.Kind == cfg.KindEntry {
			continue
		}
		if p != nil && p != e.From {
			return nil
		}
		p = e.From
	}
	return p
}

// trace computes the symbolic value of reg immediately before
// instruction index idx of block b.
func (r *Resolver) trace(b *cfg.Block, idx int, reg machine.Reg, depth int) sval {
	if reg == r.G.ABI().Zero {
		return sval{kind: svConst, c: 0}
	}
	if depth > maxTraceDepth {
		return sval{}
	}
	for i := idx - 1; i >= 0; i-- {
		if b.Insts[i].MI.Writes().Has(reg) {
			return r.evalDef(b, i, reg, depth)
		}
	}
	// Not defined here: a call surrogate clobbers caller-saved
	// registers; otherwise continue into predecessors and require
	// agreement at joins.
	if b.Kind == cfg.KindCallSurrogate && r.G.ABI().CallDef.Has(reg) {
		return sval{}
	}
	var result sval
	first := true
	for _, e := range b.Pred {
		p := e.From
		if p.Kind == cfg.KindEntry {
			return sval{} // value flows in from the caller: unknown
		}
		v := r.trace(p, len(p.Insts), reg, depth+1)
		if first {
			result = v
			first = false
		} else if v != result {
			return sval{}
		}
	}
	if first {
		return sval{} // no predecessors
	}
	return result
}

// evalDef interprets the definition of reg at b.Insts[i] through its
// Def: constants, adds and ors of known values fold, a shift is a
// scaled index (whatever its source: the bound comes from the
// dominating comparison), and a word load reads a table entry or a
// constant.  A word that also sets the condition codes folds nothing.
func (r *Resolver) evalDef(b *cfg.Block, i int, reg machine.Reg, depth int) sval {
	mi := b.Insts[i].MI
	d, ok := mi.Def()
	if !ok || d.Dst != reg || mi.Writes().Has(machine.RegPSR) {
		return sval{}
	}
	arg := func() (sval, sval) {
		return r.trace(b, i, d.A, depth+1), r.operand(b, i, d.HasB, d.B, d.K, depth+1)
	}
	switch d.Op {
	case machine.DefConst:
		return sval{kind: svConst, c: uint32(d.K)}
	case machine.DefOr:
		return combineOr(arg())
	case machine.DefAdd:
		return combineAdd(arg())
	case machine.DefShl:
		return sval{kind: svScaled}
	case machine.DefLoad:
		if d.Width != 4 {
			return sval{}
		}
		a := combineAdd(arg())
		switch a.kind {
		case svTable:
			return a // load of table entry IS the jump target source
		case svConst:
			// Constant-address load: folds only from the read-only
			// text segment (a literal pointer table); loads from
			// writable data stay unknown.
			if r.InText != nil && r.InText(a.c) {
				if w, ok := r.ReadWord(a.c); ok {
					return sval{kind: svConst, c: w}
				}
			}
		}
	}
	return sval{}
}

// operand is the value of a form's second operand before b.Insts[i]:
// register x when reg, else the constant k.
func (r *Resolver) operand(b *cfg.Block, i int, reg bool, x machine.Reg, k int64, depth int) sval {
	if reg {
		return r.trace(b, i, x, depth)
	}
	return sval{kind: svConst, c: uint32(k)}
}

func combineAdd(a, b sval) sval {
	switch {
	case a.kind == svConst && b.kind == svConst:
		return sval{kind: svConst, c: a.c + b.c}
	case a.kind == svConst && b.kind == svScaled:
		return sval{kind: svTable, c: a.c}
	case a.kind == svScaled && b.kind == svConst:
		return sval{kind: svTable, c: b.c}
	case a.kind == svTable && b.kind == svConst:
		return sval{kind: svTable, c: a.c + b.c}
	case a.kind == svConst && b.kind == svTable:
		return sval{kind: svTable, c: a.c + b.c}
	}
	return sval{}
}

func combineOr(a, b sval) sval {
	if a.kind == svConst && b.kind == svConst {
		return sval{kind: svConst, c: a.c | b.c}
	}
	// or rd, zero, x is the mov idiom.
	if a.kind == svConst && a.c == 0 {
		return b
	}
	if b.kind == svConst && b.c == 0 {
		return a
	}
	return sval{}
}

// SliceMark classifies an instruction in a backward slice, following
// the paper's Figure 4 vocabulary.
type SliceMark int

// Slice marks.
const (
	// SliceEasy instructions read nothing further (constants).
	SliceEasy SliceMark = iota
	// SliceHard instructions read registers the slice follows.
	SliceHard
	// SliceImpossible instructions stop the slice (e.g. floating
	// point operations, which qpt refuses to trace).
	SliceImpossible
)

// SliceEntry is one instruction in a backward slice.
type SliceEntry struct {
	Block *cfg.Block
	Index int
	Mark  SliceMark
}

// BackwardSlice computes the backward address slice of reg starting
// before instruction index idx of block b — the Figure 4 algorithm:
// a defining instruction that reads nothing is easy; one that reads
// registers is hard and the slice continues through what it reads;
// floating-point definitions are impossible.
func BackwardSlice(g *cfg.Graph, b *cfg.Block, idx int, reg machine.Reg) []SliceEntry {
	type key struct {
		blk *cfg.Block
		i   int
	}
	visited := map[key]bool{}
	var out []SliceEntry

	type item struct {
		b   *cfg.Block
		idx int
		r   machine.Reg
	}
	work := []item{{b, idx, reg}}
	regSeen := map[key]map[machine.Reg]bool{}
	zero := g.ABI().Zero
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if it.r == zero {
			continue
		}
		k := key{it.b, it.idx}
		if regSeen[k] == nil {
			regSeen[k] = map[machine.Reg]bool{}
		}
		if regSeen[k][it.r] {
			continue
		}
		regSeen[k][it.r] = true

		found := false
		for i := it.idx - 1; i >= 0; i-- {
			mi := it.b.Insts[i].MI
			if !mi.Writes().Has(it.r) {
				continue
			}
			found = true
			dk := key{it.b, i}
			if visited[dk] {
				break
			}
			visited[dk] = true
			var mark SliceMark
			switch {
			case !mi.Reads().Intersect(machine.FloatRegs()).IsEmpty() || it.r.IsFloat():
				mark = SliceImpossible
			case mi.Reads().IsEmpty():
				mark = SliceEasy
			default:
				mark = SliceHard
				mi.Reads().ForEach(func(rr machine.Reg) {
					work = append(work, item{it.b, i, rr})
				})
			}
			out = append(out, SliceEntry{Block: it.b, Index: i, Mark: mark})
			break
		}
		if !found {
			for _, e := range it.b.Pred {
				if e.From.Kind == cfg.KindEntry {
					continue
				}
				work = append(work, item{e.From, len(e.From.Insts), it.r})
			}
		}
	}
	return out
}
