package dataflow_test

import (
	"encoding/binary"
	"slices"
	"testing"

	"eel/internal/asm"
	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/sparc"
)

func build(t *testing.T, src string) (*cfg.Graph, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src, 0x10000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	end := prog.Base + uint32(len(prog.Bytes))
	dec := sparc.NewDecoder()
	g, err := cfg.Build(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, end, []uint32{prog.Base})
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return g, prog
}

const diamond = `
	cmp %o0, 0
	be elsepart
	nop
	mov 1, %l0
	ba join
	nop
elsepart: mov 2, %l0
join:	mov %l0, %o0
	retl
	nop
`

func TestDominators(t *testing.T) {
	g, prog := build(t, diamond)
	dom := dataflow.Dominators(g)
	head := g.ByAddr[0x10000]
	join := g.ByAddr[prog.Labels["join"]]
	elseB := g.ByAddr[prog.Labels["elsepart"]]
	if !dom.Dominates(head, join) {
		t.Error("head must dominate join")
	}
	if !dom.Dominates(head, elseB) {
		t.Error("head must dominate else")
	}
	if dom.Dominates(elseB, join) {
		t.Error("else must not dominate join")
	}
	if dom.IDom(join) != head {
		t.Errorf("idom(join) = B%d, want the head", dom.IDom(join).ID)
	}
	if dom.IDom(g.Entry) != g.Entry {
		t.Error("entry idom broken")
	}
}

const loopSrc = `
	mov 10, %l0
	clr %o0
loop:	add %o0, %l0, %o0
	subcc %l0, 1, %l0
	bne loop
	nop
	retl
	nop
`

func TestNaturalLoops(t *testing.T) {
	g, prog := build(t, loopSrc)
	idom := dataflow.Dominators(g)
	loops := dataflow.NaturalLoops(g, idom)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	l := loops[0]
	if l.Head != g.ByAddr[prog.Labels["loop"]] {
		t.Errorf("loop head at %#x", l.Head.Start())
	}
	if !l.Body.Has(l.Head) {
		t.Error("head not in body")
	}
	depth := dataflow.LoopDepth(g, loops)
	if depth[l.Head.ID] != 1 {
		t.Errorf("depth = %d", depth[l.Head.ID])
	}
	if depth[g.Entry.ID] != 0 {
		t.Error("entry should be outside the loop")
	}
}

// TestLoopBodyExcludesUnreachable builds the graph of
//
//	H:	…; ba B; nop
//	X:	…	(dead: nothing branches here)
//	B:	…; ba H; nop
//
// by hand.  X falls into the latch B, so it reaches the back edge
// without passing the head, but the head does not dominate it: it is
// not part of the loop.
func TestLoopBodyExcludesUnreachable(t *testing.T) {
	g := &cfg.Graph{}
	g.Reserve(5, 4)
	g.Entry, g.Exit = g.NewBlock(cfg.KindEntry), g.NewBlock(cfg.KindExit)
	head, dead, latch := g.NewBlock(cfg.KindNormal), g.NewBlock(cfg.KindNormal), g.NewBlock(cfg.KindNormal)
	g.NewEdge(g.Entry, head, cfg.EdgeEntry, false)
	g.NewEdge(head, latch, cfg.EdgeTaken, false)
	g.NewEdge(dead, latch, cfg.EdgeFall, false)
	g.NewEdge(latch, head, cfg.EdgeTaken, false)
	g.Link()

	dom := dataflow.Dominators(g)
	loops := dataflow.NaturalLoops(g, dom)
	if len(loops) != 1 || loops[0].Head != head {
		t.Fatalf("loops = %v, want one headed by B%d", loops, head.ID)
	}
	if got, want := loops[0].Body.IDs(), []int{head.ID, latch.ID}; !slices.Equal(got, want) {
		t.Errorf("body = %v, want %v", got, want)
	}
	if depth := dataflow.LoopDepth(g, loops); depth[dead.ID] != 0 {
		t.Errorf("dead block's loop depth = %d, want 0", depth[dead.ID])
	}
}

func TestLivenessBasics(t *testing.T) {
	g, _ := build(t, `
	mov 1, %l0
	mov 2, %l1
	add %l0, %l1, %o0
	retl
	nop
`)
	lv := dataflow.ComputeLiveness(g)
	b := g.ByAddr[0x10000]
	// Before the add (index 2), l0 and l1 are live.
	live := lv.LiveBefore(b, 2)
	if !live.Has(16) || !live.Has(17) {
		t.Errorf("live before add = %s, want l0,l1", live)
	}
	// Before the first mov nothing of l0/l1 is live.
	live0 := lv.LiveBefore(b, 0)
	if live0.Has(16) || live0.Has(17) {
		t.Errorf("live at block start = %s", live0)
	}
	// o0 is live at exit (return value).
	if !lv.Out[b.ID].Has(8) && !lv.In[g.Exit.ID].Has(8) {
		// o0 flows through the return path blocks.
		t.Log("o0 liveness flows through return slot; checking edge")
	}
}

func TestDeadRegistersForScavenging(t *testing.T) {
	g, _ := build(t, `
	mov 1, %l0
	add %l0, 1, %o0
	retl
	nop
`)
	lv := dataflow.ComputeLiveness(g)
	b := g.ByAddr[0x10000]
	dead := lv.DeadBefore(b, 0)
	// Plenty of dead registers at routine entry in this tiny code;
	// and never %g0/%sp/%o7/%fp, nor the %g6/%g7 pair that layout's
	// translation stubs clobber.
	if dead.Len() < 10 {
		t.Errorf("dead = %s (%d), want many", dead, dead.Len())
	}
	for _, set := range []machine.RegSet{dead, lv.DeadAtEdge(g.Entry.Succ[0]), lv.DeadAtEdge(g.Exit.Pred[0])} {
		for _, r := range []machine.Reg{0, 6, 7, 14, 15, 30} {
			if set.Has(r) {
				t.Errorf("reserved register %s offered for scavenging", sparc.RegName(r))
			}
		}
	}
}

func TestCondCodesLiveness(t *testing.T) {
	// Blizzard's optimization (§5): insert the cheap cc-clobbering
	// test only where the condition codes are dead.
	g, prog := build(t, `
	cmp %o0, 5
	mov 1, %l0
use:	be somewhere
	nop
	retl
	nop
somewhere: retl
	nop
`)
	lv := dataflow.ComputeLiveness(g)
	first := g.ByAddr[0x10000]
	// After cmp, before be: PSR is live (the mov doesn't kill it).
	if !lv.LiveBefore(first, 1).Has(machine.RegPSR) {
		t.Error("PSR should be live between cmp and be")
	}
	// At the branch target, PSR is dead.
	tgt := g.ByAddr[prog.Labels["somewhere"]]
	if lv.LiveBefore(tgt, 0).Has(machine.RegPSR) {
		t.Error("PSR should be dead after the branch consumed it")
	}
}

func TestCallClobbersOutRegisters(t *testing.T) {
	g, _ := build(t, `
	mov 5, %l5
	call f
	nop
	add %l5, 1, %o0
	retl
	nop
f:	retl
	nop
`)
	lv := dataflow.ComputeLiveness(g)
	first := g.ByAddr[0x10000]
	// l5 is live across the call (used after).
	if !lv.LiveBefore(first, 1).Has(21) {
		t.Error("l5 must be live across the call")
	}
	// o5 is dead before the call (clobbered by surrogate, not an
	// argument... it IS in CallUse, so live). Check g3 instead:
	// dead (surrogate clobbers it, nothing reads it).
	if lv.LiveBefore(first, 1).Has(3) {
		t.Error("g3 should be dead before the call")
	}
}

// dispatchSrc is the canonical gcc-style switch lowering.
const dispatchSrc = `
	cmp %o0, 3
	bgu default
	sll %o0, 2, %l1
	set table, %l2
	ld [%l2+%l1], %l3
	jmp %l3
	nop
case0:	mov 10, %o0
	retl
	nop
case1:	mov 20, %o0
	retl
	nop
case2:	mov 30, %o0
	retl
	nop
case3:	mov 40, %o0
	retl
	nop
default: mov 99, %o0
	retl
	nop
	.align 4
table:	.word case0
	.word case1
	.word case2
	.word case3
`

func resolver(g *cfg.Graph, prog *asm.Program) *dataflow.Resolver {
	return &dataflow.Resolver{
		ReadWord: func(addr uint32) (uint32, bool) {
			off := addr - prog.Base
			if off+4 > uint32(len(prog.Bytes)) {
				return 0, false
			}
			return uint32(prog.Bytes[off])<<24 | uint32(prog.Bytes[off+1])<<16 |
				uint32(prog.Bytes[off+2])<<8 | uint32(prog.Bytes[off+3]), true
		},
	}
}

func TestDispatchTableResolution(t *testing.T) {
	g, prog := build(t, dispatchSrc)
	if g.Complete {
		t.Fatal("first pass should be incomplete")
	}
	r := &dataflow.Resolver{G: g, ReadWord: resolver(nil, prog).ReadWord}
	res := r.AnalyzeIndirectJumps()
	if len(res) != 1 {
		t.Fatalf("resolutions = %d", len(res))
	}
	var jumpAddr uint32
	var got dataflow.Resolution
	for a, rr := range res {
		jumpAddr, got = a, rr
	}
	if !got.OK {
		t.Fatal("dispatch table not found")
	}
	if got.Table.Addr != prog.Labels["table"] {
		t.Errorf("table at %#x, want %#x", got.Table.Addr, prog.Labels["table"])
	}
	if len(got.Targets) != 4 {
		t.Fatalf("targets = %d, want 4 (bounds check should clamp)", len(got.Targets))
	}
	want := []string{"case0", "case1", "case2", "case3"}
	for i, w := range want {
		if got.Targets[i] != prog.Labels[w] {
			t.Errorf("target[%d] = %#x, want %s", i, got.Targets[i], w)
		}
	}
	// Rebuild with the resolution: the graph becomes complete.
	end := prog.Base + uint32(len(prog.Bytes))
	dec := sparc.NewDecoder()
	g2, err := cfg.BuildWithOptions(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, end,
		[]uint32{prog.Base}, cfg.Options{
			IndirectTargets: map[uint32][]uint32{jumpAddr: got.Targets},
			Tables:          map[uint32]cfg.TableInfo{jumpAddr: got.Table},
		})
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Complete {
		t.Error("rebuilt graph should be complete")
	}
	if g2.ByAddr[prog.Labels["case2"]] == nil {
		t.Error("case arm not materialized after rebuild")
	}
}

func TestLiteralJumpResolution(t *testing.T) {
	g, prog := build(t, `
	set target, %l0
	jmp %l0
	nop
target:	retl
	nop
`)
	r := &dataflow.Resolver{G: g, ReadWord: resolver(nil, prog).ReadWord}
	res := r.AnalyzeIndirectJumps()
	for _, got := range res {
		if !got.OK || !got.Table.Literal {
			t.Fatalf("literal jump unresolved: %+v", got)
		}
		if got.Targets[0] != prog.Labels["target"] {
			t.Errorf("literal target = %#x", got.Targets[0])
		}
	}
	if len(res) != 1 {
		t.Fatalf("resolutions = %d", len(res))
	}
}

func TestTailCallPopAndJumpUnresolvable(t *testing.T) {
	// The SunPro idiom the paper measured: pop the frame and jump
	// through a register whose value came from the caller — the
	// slice reaches the routine entry and gives up.
	g, _ := build(t, `
	add %sp, 96, %sp
	jmp %g1
	nop
`)
	r := &dataflow.Resolver{G: g, ReadWord: func(uint32) (uint32, bool) { return 0, false }}
	res := r.AnalyzeIndirectJumps()
	for _, got := range res {
		if got.OK {
			t.Error("caller-provided jump target should be unresolvable")
		}
	}
	if len(res) != 1 {
		t.Fatalf("resolutions = %d", len(res))
	}
}

func TestBackwardSliceFigure4(t *testing.T) {
	g, _ := build(t, `
	mov 4, %l0
	sll %l0, 2, %l1
	set 0x20000, %l2
	add %l2, %l1, %l3
	ld [%l3], %o0
	retl
	nop
`)
	b := g.ByAddr[0x10000]
	// Slice the address register %l3 of the load (index 5 in block:
	// mov, sll, sethi, or, add, ld).
	entries := dataflow.BackwardSlice(g, b, 5, 19) // %l3
	if len(entries) < 4 {
		t.Fatalf("slice entries = %d, want >= 4", len(entries))
	}
	// Index in block: 0 mov(or g0), 1 sll, 2 sethi, 3 or, 4 add.
	marks := map[int]dataflow.SliceMark{}
	for _, e := range entries {
		marks[e.Index] = e.Mark
	}
	if m, ok := marks[2]; !ok || m != dataflow.SliceEasy {
		t.Errorf("sethi should be easy (reads nothing): %v ok=%v", m, ok)
	}
	if m, ok := marks[4]; !ok || m != dataflow.SliceHard {
		t.Errorf("add should be hard: %v ok=%v", m, ok)
	}
	if m, ok := marks[0]; !ok || m != dataflow.SliceEasy {
		t.Errorf("mov imm (or %%g0) should be easy: %v ok=%v", m, ok)
	}
	if m, ok := marks[1]; !ok || m != dataflow.SliceHard {
		t.Errorf("sll should be hard (reads the index): %v ok=%v", m, ok)
	}
}

func TestSliceStopsAtFloat(t *testing.T) {
	g, _ := build(t, `
	fstoi %f0, %f1
	retl
	nop
`)
	b := g.ByAddr[0x10000]
	entries := dataflow.BackwardSlice(g, b, 1, machine.FloatBase+1)
	for _, e := range entries {
		if e.Mark != dataflow.SliceImpossible {
			t.Errorf("float def should be impossible, got %v", e.Mark)
		}
	}
}

// mipsGraph builds one routine from MIPS words at 0x10000: the routine
// spans the first n words, and the rest (a dispatch table) is data the
// resolver reads.
func mipsGraph(t *testing.T, n int, words ...uint32) (*cfg.Graph, *dataflow.Resolver) {
	t.Helper()
	const base = 0x10000
	text := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(text[4*i:], w)
	}
	dec := mips.NewDecoder()
	end := uint32(base + 4*n)
	g, err := cfg.Build(dec, machine.DecodeText(dec, text), base, base, end, []uint32{base})
	if err != nil {
		t.Fatal(err)
	}
	return g, &dataflow.Resolver{
		G: g,
		ReadWord: func(addr uint32) (uint32, bool) {
			if addr < base || addr-base+4 > uint32(len(text)) {
				return 0, false
			}
			return binary.BigEndian.Uint32(text[addr-base:]), true
		},
		InText: func(addr uint32) bool { return addr >= base && addr < base+uint32(len(text)) },
	}
}

func mipsWord(t *testing.T) func(uint32, error) uint32 {
	return func(w uint32, err error) uint32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
}

// TestMIPSLoadedJumpUnresolved pins the slicer on a machine without
// SPARC's field names: "lui; lw; jr" loads its target from writable
// data, so the jump stays unresolved.  Read through SPARC's rs1, iflag
// and rs2, every field was missing and read as 0, the zero register,
// and the jump "resolved" to the literal address 0.
func TestMIPSLoadedJumpUnresolved(t *testing.T) {
	w := mipsWord(t)
	_, r := mipsGraph(t, 4,
		w(mips.EncodeIU("lui", 8, 0, 0x1234)),
		w(mips.EncodeI("lw", 9, 8, 0x40)),
		w(mips.EncodeR("jr", 0, 9, 0)),
		mips.Nop())
	res := r.AnalyzeIndirectJumps()
	if got, ok := res[0x10008]; !ok || got.OK || len(res) != 1 {
		t.Fatalf("resolutions %+v, want the jump at 0x10008 unresolved", res)
	}
}

// TestMIPSDispatchTableResolution resolves the MIPS switch idiom: the
// table base from lui/addiu, the index scaled by sll, their sum
// loaded by lw and jumped through by jr.  The table's three entries
// are the targets; the implausible word after them ends the scan.
func TestMIPSDispatchTableResolution(t *testing.T) {
	w := mipsWord(t)
	const table = 0x10000 + 4*13
	words := []uint32{
		w(mips.EncodeIU("lui", 8, 0, table>>16)),
		w(mips.EncodeI("addiu", 8, 8, table&0xffff)),
		w(mips.EncodeShift("sll", 9, 4, 2)),
		w(mips.EncodeR("addu", 8, 8, 9)),
		w(mips.EncodeI("lw", 10, 8, 0)),
		w(mips.EncodeR("jr", 0, 10, 0)),
		mips.Nop(),
	}
	var cases []uint32
	for i := 0; i < 3; i++ {
		cases = append(cases, 0x10000+4*uint32(len(words)))
		words = append(words, w(mips.EncodeR("jr", 0, 31, 0)), mips.Nop())
	}
	words = append(words, cases...)
	words = append(words, 0x10002) // misaligned: not a target
	_, r := mipsGraph(t, 13, words...)
	res := r.AnalyzeIndirectJumps()
	got, ok := res[0x10014]
	if !ok || !got.OK || got.Table.Addr != table || got.Table.Len != 3 || !slices.Equal(got.Targets, cases) {
		t.Fatalf("resolution %+v, want table %#x with targets %#x", got, table, cases)
	}
}
