package eel_test

// Tests of the public API surface: the five abstractions as a
// downstream user of the library sees them.

import (
	"testing"

	"eel"
	"eel/internal/asm"
	"eel/internal/machine"
	"eel/internal/progen"
	"eel/internal/sim"
	"eel/internal/sparc"
)

func apiExec(t *testing.T, seed int64) *eel.Executable {
	t.Helper()
	p := progen.MustGenerate(progen.DefaultConfig(seed))
	e, err := eel.Load(p.File)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestOpenFromDisk(t *testing.T) {
	p := progen.MustGenerate(progen.DefaultConfig(50))
	path := t.TempDir() + "/prog"
	data, err := eel.WriteImage(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eel.ReadImage(data); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the filesystem.
	if err := eel.WriteImageFile(path, p.File); err != nil {
		t.Fatal(err)
	}
	e, err := eel.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Routines()) < 5 {
		t.Fatalf("routines = %d", len(e.Routines()))
	}
}

func TestPublicAnalyses(t *testing.T) {
	e := apiExec(t, 51)
	r := e.Routines()[1]
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	idom := eel.Dominators(g)
	if idom.IDom(g.Entry) != g.Entry {
		t.Error("dominators broken through facade")
	}
	loops := eel.NaturalLoops(g)
	_ = loops
	lv := eel.ComputeLiveness(g)
	if lv == nil {
		t.Fatal("liveness nil")
	}
	// Category constants re-exported coherently.
	for _, b := range g.Blocks {
		for _, in := range b.Insts {
			c := in.MI.Category()
			if c == eel.CatInvalid && b.Kind == eel.KindNormal {
				t.Fatalf("invalid instruction inside normal block at %#x", in.Addr)
			}
		}
	}
}

func TestInstructionInquiries(t *testing.T) {
	// The §3.4 inquiry set on a handful of instructions, through the
	// public types.
	prog := asm.MustAssemble(`
	ld [%g1+4], %o0
	st %o0, [%g1]
	call target
	nop
target:	retl
	nop
`, 0x10000)
	e, err := eel.Load(&eel.File{
		Format:   "aout",
		Entry:    0x10000,
		Sections: []eel.Section{{Name: "text", Addr: 0x10000, Data: prog.Bytes}},
		Symbols:  []eel.Symbol{{Name: "main", Addr: 0x10000, Global: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Routines()[0].ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	first := g.ByAddr[0x10000]
	ld := first.Insts[0].MI
	if !ld.ReadsMem() || ld.WritesMem() || ld.MemWidth() != 4 {
		t.Error("load inquiries wrong")
	}
	st := first.Insts[1].MI
	if !st.WritesMem() || st.ReadsMem() {
		t.Error("store inquiries wrong")
	}
	call := first.Insts[2].MI
	if call.Category() != eel.CatCallDirect || call.DelaySlots() != 1 {
		t.Error("call inquiries wrong")
	}
	if tgt, ok := call.StaticTarget(0x10008); !ok || tgt != prog.Labels["target"] {
		t.Error("call target wrong")
	}
}

func TestSnippetCallback(t *testing.T) {
	// The §3.5 call-back: invoked after register allocation with the
	// final address, allowed to rewrite words in place.
	prog := asm.MustAssemble(`
main:	cmp %o0, 0
	bne skip
	nop
	add %o0, 1, %o0
skip:	mov 1, %g1
	ta 0
`, 0x10000)
	e, err := eel.Load(&eel.File{
		Format:   "aout",
		Entry:    0x10000,
		Sections: []eel.Section{{Name: "text", Addr: 0x10000, Data: prog.Bytes}},
		Symbols:  []eel.Symbol{{Name: "main", Addr: 0x10000, Global: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Routines()[0]
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	ctr := e.AllocData(4)
	var cbAddr uint32
	var cbAssign map[eel.Reg]eel.Reg
	p1, p2 := eel.Reg(16), eel.Reg(17)
	hi, _ := sparc.EncodeSethi(p1, ctr)
	ld, _ := sparc.EncodeOp3Imm("ld", p2, p1, int32(sparc.Lo(ctr)))
	add, _ := sparc.EncodeOp3Imm("add", p2, p2, 1)
	st, _ := sparc.EncodeOp3Imm("st", p2, p1, int32(sparc.Lo(ctr)))
	snip := &eel.Snippet{
		Body:      []uint32{hi, ld, add, st},
		AllocRegs: []eel.Reg{p1, p2},
		Callback: func(words []uint32, addr uint32, assign map[machine.Reg]machine.Reg) {
			cbAddr = addr
			cbAssign = assign
			// Rewrite the increment to +2 (same length).
			w, _ := sparc.EncodeOp3Imm("add", assign[p2], assign[p2], 2)
			words[2] = w
		},
	}
	// Instrument both out-edges of the branch: whichever path runs,
	// the counter must step by the callback-rewritten amount.
	edited := 0
	for _, b := range g.Blocks {
		if len(b.Succ) <= 1 || b.Kind != eel.KindNormal {
			continue
		}
		for _, edge := range b.Succ {
			if !edge.Uneditable {
				if err := r.AddCodeAlong(edge, snip); err != nil {
					t.Fatal(err)
				}
				edited++
			}
		}
	}
	if edited == 0 {
		t.Fatal("no editable edge")
	}
	img, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	if cbAddr == 0 || cbAssign == nil {
		t.Fatal("callback not invoked with placement info")
	}
	text := img.Text()
	if cbAddr < text.Addr || cbAddr >= text.End() {
		t.Errorf("callback address %#x outside edited text", cbAddr)
	}
	// The callback's rewrite is live: the counter steps by 2.
	cpu := sim.LoadFile(img, nil)
	if err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	if got := cpu.Mem.Read32(ctr); got != 2 {
		t.Errorf("counter = %d, want 2 (callback rewrite lost)", got)
	}
}

func TestBlizzardAlternateBody(t *testing.T) {
	// A snippet whose body clobbers the condition codes must use its
	// cc-preserving alternative where the codes are live, and the
	// fast body elsewhere (§5's Blizzard optimization).
	prog := asm.MustAssemble(`
main:	cmp %o0, 5
	ld [%g1], %o1      ! cc LIVE here (cmp feeds the branch)
	bne skip
	nop
	ld [%g1+4], %o2    ! cc dead here
	add %o0, 1, %o0
skip:	mov 1, %g1
	ta 0
`, 0x10000)
	e, err := eel.Load(&eel.File{
		Format:   "aout",
		Entry:    0x10000,
		Sections: []eel.Section{{Name: "text", Addr: 0x10000, Data: prog.Bytes}},
		Symbols:  []eel.Symbol{{Name: "main", Addr: 0x10000, Global: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Routines()[0]
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	p1 := eel.Reg(16)
	fast, _ := sparc.EncodeOp3Imm("subcc", p1, 0, 1) // clobbers cc
	slow, _ := sparc.EncodeOp3Imm("sub", p1, 0, 1)   // preserves cc
	mkSnip := func() *eel.Snippet {
		return &eel.Snippet{Body: []uint32{fast}, CCAlt: []uint32{slow}, AllocRegs: []eel.Reg{p1}}
	}
	// Instrument before each ld.
	count := 0
	for _, b := range g.Blocks {
		for i, in := range b.Insts {
			if in.MI.ReadsMem() && !b.Uneditable {
				if err := r.AddCodeBefore(b, i, mkSnip()); err != nil {
					t.Fatal(err)
				}
				count++
			}
		}
	}
	if count != 2 {
		t.Fatalf("instrumented %d loads", count)
	}
	if _, err := e.BuildEdited(); err != nil {
		t.Fatal(err)
	}
	if e.Stats.CCLive != 1 {
		t.Errorf("cc-live sites = %d, want exactly 1 (the load between cmp and bne)", e.Stats.CCLive)
	}
	if e.Stats.Sites != 2 {
		t.Errorf("sites = %d", e.Stats.Sites)
	}
}

func TestCCLiveWithoutAlternativeFails(t *testing.T) {
	prog := asm.MustAssemble(`
main:	cmp %o0, 5
	ld [%g1], %o1
	bne main
	nop
	mov 1, %g1
	ta 0
`, 0x10000)
	e, err := eel.Load(&eel.File{
		Format:   "aout",
		Entry:    0x10000,
		Sections: []eel.Section{{Name: "text", Addr: 0x10000, Data: prog.Bytes}},
		Symbols:  []eel.Symbol{{Name: "main", Addr: 0x10000, Global: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := e.Routines()[0]
	g, err := r.ControlFlowGraph()
	if err != nil {
		t.Fatal(err)
	}
	p1 := eel.Reg(16)
	fast, _ := sparc.EncodeOp3Imm("subcc", p1, 0, 1)
	snip := &eel.Snippet{Body: []uint32{fast}, AllocRegs: []eel.Reg{p1}}
	b := g.ByAddr[0x10000]
	if err := r.AddCodeBefore(b, 1, snip); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildEdited(); err == nil {
		t.Error("cc-clobbering snippet at a cc-live point must fail without an alternative")
	}
}
