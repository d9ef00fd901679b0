package cfg_test

import (
	"encoding/binary"
	"runtime/debug"
	"testing"

	"eel/internal/asm"
	"eel/internal/cfg"
	"eel/internal/core"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/sparc"
)

// build assembles src at 0x10000 and constructs the CFG of the whole
// image as one routine entered at its base.
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

func blockAt(t *testing.T, g *cfg.Graph, addr uint32) *cfg.Block {
	t.Helper()
	b := g.ByAddr[addr]
	if b == nil {
		t.Fatalf("no block at %#x", addr)
	}
	return b
}

func TestStraightLine(t *testing.T) {
	g, _ := build(t, `
	mov 1, %o0
	mov 1, %g1
	ta 0
`)
	s := g.Stats()
	if s.NormalBlocks != 1 {
		t.Errorf("normal blocks = %d, want 1", s.NormalBlocks)
	}
	b := blockAt(t, g, 0x10000)
	if len(b.Insts) != 3 {
		t.Errorf("insts = %d, want 3 (ta is not a terminator)", len(b.Insts))
	}
	if !g.Complete {
		t.Error("graph should be complete")
	}
}

func TestFigure3Normalization(t *testing.T) {
	// The paper's Figure 3: an annulled conditional branch's delay
	// slot instruction appears along only the taken edge.
	g, prog := build(t, `
	cmp %l1, %l2
	bne,a L1
	add %l1, %l2, %l1    ! delay slot of annulled branch
	mov 9, %o0           ! fallthrough
L1:	mov 1, %g1
	ta 0
`)
	branchBlk := blockAt(t, g, 0x10000)
	last := branchBlk.Last()
	if last == nil || last.MI.Name() != "bne" {
		t.Fatalf("branch block ends with %v", last)
	}
	if len(branchBlk.Succ) != 2 {
		t.Fatalf("branch block has %d successors", len(branchBlk.Succ))
	}
	var taken, fall *cfg.Edge
	for _, e := range branchBlk.Succ {
		switch e.Kind {
		case cfg.EdgeTaken:
			taken = e
		case cfg.EdgeFall:
			fall = e
		}
	}
	if taken == nil || fall == nil {
		t.Fatal("missing taken or fall edge")
	}
	// Taken path goes through a delay-slot block holding the add.
	if taken.To.Kind != cfg.KindDelaySlot {
		t.Fatalf("taken edge leads to %s, want delayslot", taken.To.Kind)
	}
	if taken.To.Insts[0].MI.Name() != "add" {
		t.Errorf("delay slot holds %s", taken.To.Insts[0].MI.Name())
	}
	if taken.To.Succ[0].To != g.ByAddr[prog.Labels["L1"]] {
		t.Error("delay slot does not reach L1")
	}
	// Fall path skips the slot entirely (annulled, untaken).
	if fall.To.Kind == cfg.KindDelaySlot {
		t.Error("annulled branch must not execute its slot on the untaken path")
	}
	if fall.To.Start() != 0x1000c {
		t.Errorf("fall edge to %#x, want 0x1000c", fall.To.Start())
	}
}

func TestNonAnnulledSlotDuplicated(t *testing.T) {
	g, _ := build(t, `
	cmp %l1, %l2
	bne L1
	add %l1, %l2, %l1
	mov 9, %o0
L1:	mov 1, %g1
	ta 0
`)
	branchBlk := blockAt(t, g, 0x10000)
	dsCount := 0
	for _, e := range branchBlk.Succ {
		if e.To.Kind == cfg.KindDelaySlot {
			dsCount++
		}
	}
	if dsCount != 2 {
		t.Errorf("delay-slot copies = %d, want 2 (both edges)", dsCount)
	}
	if got := g.Stats().DelaySlotBlocks; got != 2 {
		t.Errorf("stats delay slots = %d, want 2", got)
	}
}

func TestCallSurrogate(t *testing.T) {
	g, prog := build(t, `
	call f
	nop
	mov 1, %g1
	ta 0
f:	retl
	nop
`)
	callBlk := blockAt(t, g, 0x10000)
	if callBlk.Last().MI.Category() != machine.CatCallDirect {
		t.Fatalf("block ends with %s", callBlk.Last().MI)
	}
	// call → uneditable DS → uneditable surrogate → return point.
	ds := callBlk.Succ[0].To
	if ds.Kind != cfg.KindDelaySlot || !ds.Uneditable {
		t.Fatalf("after call: %s uneditable=%v", ds.Kind, ds.Uneditable)
	}
	surr := ds.Succ[0].To
	if surr.Kind != cfg.KindCallSurrogate || !surr.Uneditable {
		t.Fatalf("surrogate: %s uneditable=%v", surr.Kind, surr.Uneditable)
	}
	if surr.CallTarget != prog.Labels["f"] {
		t.Errorf("call target = %#x, want %#x", surr.CallTarget, prog.Labels["f"])
	}
	ret := surr.Succ[0]
	if ret.Kind != cfg.EdgeReturn || ret.Uneditable {
		t.Errorf("return edge kind=%s uneditable=%v (should be editable)", ret.Kind, ret.Uneditable)
	}
	if ret.To.Start() != 0x10008 {
		t.Errorf("return point = %#x", ret.To.Start())
	}
	// The callee is a separate routine: reached via OutRefs.
	foundCall := false
	for _, or := range g.OutRefs {
		if or.IsCall && or.Target == prog.Labels["f"] {
			foundCall = true
		}
	}
	if !foundCall {
		t.Error("call target not recorded in OutRefs")
	}
}

func TestReturnEdges(t *testing.T) {
	g, _ := build(t, `
	retl
	nop
`)
	b := blockAt(t, g, 0x10000)
	ds := b.Succ[0].To
	if ds.Kind != cfg.KindDelaySlot {
		t.Fatalf("return slot kind = %s", ds.Kind)
	}
	if ds.Succ[0].To != g.Exit {
		t.Error("return does not reach exit")
	}
}

func TestBaAnnulledHasNoSlotBlock(t *testing.T) {
	g, _ := build(t, `
	ba,a L1
	mov 5, %o0      ! never executes
L1:	mov 1, %g1
	ta 0
`)
	b := blockAt(t, g, 0x10000)
	if b.Succ[0].To.Kind == cfg.KindDelaySlot {
		t.Error("ba,a must not produce a delay-slot block")
	}
	if g.Stats().DelaySlotBlocks != 0 {
		t.Errorf("delay slot blocks = %d, want 0", g.Stats().DelaySlotBlocks)
	}
	// The annulled instruction at 0x10004 is unreachable; it should
	// not appear in any block.
	if g.ByAddr[0x10004] != nil {
		t.Error("annulled slot formed a block")
	}
}

func TestDataInText(t *testing.T) {
	// A reachable invalid word means the routine contains data
	// (paper §3.1 step 4).
	g, _ := build(t, `
	mov 1, %o0
	.word 0
	mov 2, %o0
`)
	if !g.HasData {
		t.Error("reachable invalid word not flagged as data")
	}
}

func TestIndirectJumpUnresolved(t *testing.T) {
	g, _ := build(t, `
	jmp %l0
	nop
`)
	if g.Complete {
		t.Error("graph with unresolved indirect jump must be incomplete")
	}
	if len(g.IndirectJumps) != 1 {
		t.Fatalf("indirect jumps = %d", len(g.IndirectJumps))
	}
	ij := g.IndirectJumps[0]
	if ij.Resolved {
		t.Error("jump should be unresolved")
	}
	if ij.Slot == nil || ij.Slot.Succ[0].To != g.Exit {
		t.Error("unresolved jump should flow to exit")
	}
}

func TestResolvedIndirectJump(t *testing.T) {
	src := `
	jmp %l0
	nop
A:	mov 1, %o0
	mov 1, %g1
	ta 0
B:	mov 2, %o0
	mov 1, %g1
	ta 0
`
	prog := asm.MustAssemble(src, 0x10000)
	end := prog.Base + uint32(len(prog.Bytes))
	opts := cfg.Options{
		IndirectTargets: map[uint32][]uint32{
			0x10000: {prog.Labels["A"], prog.Labels["B"]},
		},
		Tables: map[uint32]cfg.TableInfo{
			0x10000: {Addr: 0x20000, Len: 2},
		},
	}
	dec := sparc.NewDecoder()
	g, err := cfg.BuildWithOptions(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, end, []uint32{prog.Base}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Complete {
		t.Error("resolved graph should be complete")
	}
	ij := g.IndirectJumps[0]
	if !ij.Resolved || ij.TableAddr != 0x20000 || ij.TableLen != 2 {
		t.Errorf("resolution = %+v", ij)
	}
	// The slot block fans out to both targets.
	if ij.Slot == nil || len(ij.Slot.Succ) != 2 {
		t.Fatalf("slot successors = %d, want 2", len(ij.Slot.Succ))
	}
	if g.ByAddr[prog.Labels["A"]] == nil || g.ByAddr[prog.Labels["B"]] == nil {
		t.Error("case arms did not become blocks")
	}
}

func TestMultipleEntryPoints(t *testing.T) {
	src := `
e1:	mov 1, %o0
	ba out
	nop
e2:	mov 2, %o0
	ba out
	nop
out:	mov 1, %g1
	ta 0
`
	prog := asm.MustAssemble(src, 0x10000)
	end := prog.Base + uint32(len(prog.Bytes))
	dec := sparc.NewDecoder()
	g, err := cfg.Build(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, end,
		[]uint32{prog.Labels["e1"], prog.Labels["e2"]})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Entry.Succ) != 2 {
		t.Errorf("entry edges = %d, want 2", len(g.Entry.Succ))
	}
}

func TestOutJumpRecorded(t *testing.T) {
	// A branch out of the routine becomes an OutRef and exit edge —
	// the raw material for entry-point refinement (§3.1 step 3).
	src := `
	ba target
	nop
target:	mov 1, %g1
	ta 0
`
	prog := asm.MustAssemble(src, 0x10000)
	// Restrict the routine to just the first two instructions.
	dec := sparc.NewDecoder()
	g, err := cfg.Build(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, prog.Base+8, []uint32{prog.Base})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.OutRefs) != 1 || g.OutRefs[0].Target != prog.Labels["target"] || g.OutRefs[0].IsCall {
		t.Errorf("outrefs = %+v", g.OutRefs)
	}
}

func TestUnreachableTailDetected(t *testing.T) {
	// Code after an unconditional exit that nothing reaches: the
	// signature of a hidden routine (§3.1 step 4).
	src := `
	mov 1, %g1
	ta 0
	jmp %o7+8
	nop
hidden:	mov 7, %o0
	retl
	nop
`
	prog := asm.MustAssemble(src, 0x10000)
	end := prog.Base + uint32(len(prog.Bytes))
	// Entry only covers the first part; 'ta 0' does not end the
	// block, so execution nominally continues, but build from an
	// artificial routine that stops before the ret:
	dec := sparc.NewDecoder()
	g, err := cfg.Build(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, end, []uint32{prog.Base})
	if err != nil {
		t.Fatal(err)
	}
	_ = g // reachability covers it all here; see symtab tests for the driver
}

func TestCTIInDelaySlotTreatedAsData(t *testing.T) {
	src := `
	ba L1
	ba L2
L1:	nop
L2:	nop
`
	prog := asm.MustAssemble(src, 0x10000)
	end := prog.Base + uint32(len(prog.Bytes))
	dec := sparc.NewDecoder()
	g, err := cfg.Build(dec, machine.DecodeText(dec, prog.Bytes), prog.Base, prog.Base, end, []uint32{prog.Base})
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasData {
		t.Error("control transfer in delay slot should demote the region to data")
	}
	if len(g.Warnings) == 0 {
		t.Error("expected a warning")
	}
}

func TestUneditableFractionPlausible(t *testing.T) {
	// A call-heavy routine should show a visible uneditable
	// fraction, in the spirit of the paper's 15-20%.
	g, _ := build(t, `
	call f
	nop
	call f
	nop
	call f
	nop
	mov 1, %g1
	ta 0
f:	retl
	nop
`)
	s := g.Stats()
	if s.UneditableB == 0 || s.UneditableE == 0 {
		t.Errorf("expected some uneditable blocks/edges, got %d/%d", s.UneditableB, s.UneditableE)
	}
}

func TestBlockSplitAtBranchTarget(t *testing.T) {
	g, prog := build(t, `
	mov 1, %o0
	mov 2, %o1
mid:	mov 3, %o2
	cmp %o0, %o1
	bne mid
	nop
	mov 1, %g1
	ta 0
`)
	if g.ByAddr[prog.Labels["mid"]] == nil {
		t.Fatal("branch target did not start a block")
	}
	first := blockAt(t, g, 0x10000)
	if len(first.Insts) != 2 {
		t.Errorf("first block has %d insts, want 2 (split at mid)", len(first.Insts))
	}
	// Fall edge connects them.
	if first.Succ[0].To != g.ByAddr[prog.Labels["mid"]] {
		t.Error("fall edge missing after split")
	}
}

// cfgBuildAllocs is the exact heap allocation count of building every
// routine of TestCFGBuildAllocs's program.  Lower it when a change
// saves allocations; a rise is a regression.
const cfgBuildAllocs = 527

// TestCFGBuildAllocs gates graph construction's allocations.  The text
// is decoded before measuring, so the decoders' shared memo plays no
// part, and collection is off, so fmt's printer pool (one graph has a
// warning) never needs a refill: the count is exact.  The race
// detector drops pooled items at random, so it skips there.
func TestCFGBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	cfg0 := progen.DefaultConfig(7)
	cfg0.Routines = 30
	p, err := progen.Generate(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewExecutable(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	text := p.File.Text()
	insts := machine.DecodeText(e.Dec, text.Data)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(5, func() {
		for _, r := range e.Routines() {
			if _, err := cfg.Build(e.Dec, insts, text.Addr, r.Start, r.End, r.Entries); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.0f allocations to build %d routines' graphs", n, len(e.Routines()))
	if n != cfgBuildAllocs {
		t.Errorf("building the graphs allocates %.0f times, want exactly %d", n, cfgBuildAllocs)
	}
}

// SPARC's bn,a annuls its successor without transferring: its block
// ends there, the word it skips is in no block and is no unreachable
// tail, and control goes on past that word.
func TestAnnulSkipsSuccessor(t *testing.T) {
	g, _ := build(t, `
	mov 5, %o0
	bn,a L1
	add %o0, 100, %o0  ! never executes
L1:	mov 1, %g1
	ta 0
`)
	b := blockAt(t, g, 0x10000)
	if len(b.Insts) != 2 || len(b.Succ) != 1 || b.Succ[0].To != blockAt(t, g, 0x1000c) || b.Succ[0].Kind != cfg.EdgeFall {
		t.Fatalf("entry block holds %d instructions and %d successors, want mov and bn,a falling to %#x", len(b.Insts), len(b.Succ), 0x1000c)
	}
	for _, blk := range g.Blocks {
		for _, in := range blk.Insts {
			if in.Addr == 0x10008 {
				t.Errorf("block %d holds the skipped word", blk.ID)
			}
		}
	}
	if g.UnreachableTail != 0 {
		t.Errorf("skipped word taken for a hidden routine at %#x", g.UnreachableTail)
	}
}

// Padding after a routine's return is the machine's nop (ABI.Nop),
// not SPARC's: MIPS pads with word 0.  Any other valid word there
// marks a hidden routine, on either machine.
func TestPaddingIsMachineNop(t *testing.T) {
	must := func(w uint32, err error) uint32 {
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	sparcRet := must(sparc.EncodeOp3Imm("jmpl", sparc.RegG0, sparc.RegO7, 8))
	sparcMov := must(sparc.EncodeOp3Imm("or", sparc.RegO0, sparc.RegG0, 7))
	mipsRet := must(mips.EncodeR("jr", 0, 31, 0))
	mipsMov := must(mips.EncodeI("addiu", 2, 0, 7))
	const base = 0x10000
	for _, c := range []struct {
		what  string
		dec   machine.Decoder
		words []uint32
		tail  uint32
	}{
		{"sparc nops", sparc.NewDecoder(), []uint32{sparcRet, sparc.Nop(), sparc.Nop(), sparc.Nop()}, 0},
		{"sparc code", sparc.NewDecoder(), []uint32{sparcRet, sparc.Nop(), sparc.Nop(), sparcMov}, base + 12},
		{"mips nops", mips.NewDecoder(), []uint32{mipsRet, 0, 0, 0}, 0},
		{"mips code", mips.NewDecoder(), []uint32{mipsRet, 0, 0, mipsMov}, base + 12},
	} {
		text := make([]byte, 4*len(c.words))
		for i, w := range c.words {
			binary.BigEndian.PutUint32(text[4*i:], w)
		}
		end := base + uint32(len(text))
		g, err := cfg.Build(c.dec, machine.DecodeText(c.dec, text), base, base, end, []uint32{base})
		if err != nil {
			t.Fatal(err)
		}
		if g.UnreachableTail != c.tail {
			t.Errorf("%s: unreachable tail %#x, want %#x", c.what, g.UnreachableTail, c.tail)
		}
	}
}
