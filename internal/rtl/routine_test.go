package rtl_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"eel/internal/asm"
	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/rtl"
	"eel/internal/sparc"
)

func buildRoutine(t *testing.T, src string) (*cfg.Graph, *dataflow.Liveness, *asm.Program) {
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
	return g, dataflow.ComputeLiveness(g, dataflow.DefaultExitLive()), prog
}

// testBridge is a minimal RBridge: big-endian byte map memory and the
// emulator's trap-0 syscall convention.
type testBridge struct {
	mem map[uint32]byte
}

func (b *testBridge) ReadMem(addr uint64, width int) (uint64, error) {
	a := uint32(addr)
	if a%uint32(width) != 0 {
		return 0, fmt.Errorf("misaligned read%d at %#x", width, a)
	}
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<8 | uint64(b.mem[a+uint32(i)])
	}
	return v, nil
}

func (b *testBridge) WriteMem(addr uint64, width int, v uint64) error {
	a := uint32(addr)
	if a%uint32(width) != 0 {
		return fmt.Errorf("misaligned write%d at %#x", width, a)
	}
	for i := width - 1; i >= 0; i-- {
		b.mem[a+uint32(i)] = byte(v)
		v >>= 8
	}
	return nil
}

func (b *testBridge) RTrap(e *rtl.REnv, code uint64) error {
	if code != 0 {
		return fmt.Errorf("unhandled trap %d", code)
	}
	if e.R[1] == 1 { // SysExit
		e.Halted = true
		e.ExitCode = e.R[8]
		return nil
	}
	return fmt.Errorf("bad syscall %d", e.R[1])
}

// runRoutineProg drives a RoutineProg exactly as the emulator's
// routine tier does: body stops finalized from the op index, block
// terminators self-finalizing, re-entry at exits that land on a
// compiled head.
func runRoutineProg(t *testing.T, p *rtl.RoutineProg, e *rtl.REnv) error {
	t.Helper()
	k, ok := p.Index[e.PC]
	if !ok {
		t.Fatalf("entry %#x not a compiled head", e.PC)
	}
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatal("routine runner livelock")
		}
		blk := &p.Blocks[k]
		stopped := false
		for i, op := range blk.Ops {
			if op(e) {
				pc := blk.Base + uint32(4*i)
				switch e.StopKind {
				case rtl.StopFault:
					e.Insts += uint64(i)
					e.PC, e.NPC = pc, pc+4
					e.StopPC = pc
					return e.StopErr
				case rtl.StopHalt:
					e.Insts += uint64(i) + 1
					e.PC, e.NPC = pc, pc+4
					return nil
				case rtl.StopGen:
					e.Insts += uint64(i) + 1
					e.PC, e.NPC = pc+4, pc+8
					return nil
				}
			}
		}
		if stopped {
			continue
		}
		e.Insts += uint64(len(blk.Ops))
		next := blk.Term(e)
		if next >= 0 {
			k = next
			continue
		}
		if next == rtl.RTermExit {
			if nk, ok := p.Index[e.PC]; ok && e.NPC == e.PC+4 {
				k = nk
				continue
			}
			return nil
		}
		// RTermStop: everything finalized.
		if e.StopKind == rtl.StopFault {
			return e.StopErr
		}
		return nil
	}
}

// A counted loop with a fused subcc/bne pair, ending in a clean
// syscall exit: checks register results, halt state, and exact
// instruction accounting against hand-counted interpreter behavior.
func TestRoutineLoopSum(t *testing.T) {
	g, lv, prog := buildRoutine(t, `
	mov 0, %o0
	mov 5, %o1
loop:	add %o0, %o1, %o0
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
`)
	rp, err := rtl.CompileRoutine(g, lv, prog.Base)
	if err != nil {
		t.Fatalf("CompileRoutine: %v", err)
	}
	if rp.Stubs != 0 {
		t.Fatalf("unexpected stub blocks: %d", rp.Stubs)
	}

	e := &rtl.REnv{PC: prog.Base, NPC: prog.Base + 4, Bridge: &testBridge{mem: map[uint32]byte{}}}
	var gen uint64
	e.GenP = &gen
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !e.Halted || e.ExitCode != 15 {
		t.Errorf("halted=%v exit=%d, want halted with 15", e.Halted, e.ExitCode)
	}
	if e.R[8] != 15 || e.R[9] != 0 {
		t.Errorf("o0=%d o1=%d, want 15, 0", e.R[8], e.R[9])
	}
	// 2 setup + 5 iterations of (add, subcc, bne, nop) + mov + ta.
	if want := uint64(2 + 5*4 + 2); e.Insts != want {
		t.Errorf("Insts=%d, want %d", e.Insts, want)
	}
	if e.Annuls != 0 {
		t.Errorf("Annuls=%d, want 0", e.Annuls)
	}
	// Halt leaves PC at the trap (the interpreter skips finishStep).
	taPC := prog.Base + 7*4
	if e.PC != taPC || e.NPC != taPC+4 {
		t.Errorf("PC/NPC=%#x/%#x, want %#x/%#x", e.PC, e.NPC, taPC, taPC+4)
	}
}

// Memory traffic through the bridge: a store then a load round-trips,
// and the store performs the post-write generation check.
func TestRoutineMemAndGen(t *testing.T) {
	g, lv, prog := buildRoutine(t, `
	sethi %hi(0x20000), %o2
	mov 77, %o3
	st %o3, [%o2]
	ld [%o2], %o4
	mov 1, %g1
	ta 0
`)
	rp, err := rtl.CompileRoutine(g, lv, prog.Base)
	if err != nil {
		t.Fatalf("CompileRoutine: %v", err)
	}
	br := &testBridge{mem: map[uint32]byte{}}
	e := &rtl.REnv{PC: prog.Base, NPC: prog.Base + 4, Bridge: br}
	var gen uint64
	e.GenP = &gen
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.R[12] != 77 {
		t.Errorf("o4=%d, want 77 (store/load round-trip)", e.R[12])
	}
	got := binary.BigEndian.Uint32([]byte{br.mem[0x20000], br.mem[0x20001], br.mem[0x20002], br.mem[0x20003]})
	if got != 77 {
		t.Errorf("mem word = %d, want 77", got)
	}

	// A generation bump observed by the next store must deopt with
	// the store retired.
	e2 := &rtl.REnv{PC: prog.Base, NPC: prog.Base + 4, Bridge: &testBridge{mem: map[uint32]byte{}}}
	gen2 := uint64(0)
	e2.GenP = &gen2
	e2.Gen = 1 // entered under a different generation
	if err := runRoutineProg(t, rp, e2); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e2.StopKind != rtl.StopGen {
		t.Fatalf("StopKind=%d, want StopGen", e2.StopKind)
	}
	stPC := prog.Base + 2*4
	if e2.PC != stPC+4 || e2.Insts != 3 {
		t.Errorf("after gen deopt PC=%#x Insts=%d, want %#x, 3", e2.PC, e2.Insts, stPC+4)
	}
}

// Register windows: save/restore keep the interpreter's stack
// discipline (new ins = old outs, fresh locals, underflow zeroes).
func TestRoutineWindows(t *testing.T) {
	g, lv, prog := buildRoutine(t, `
	mov 42, %o0
	save %sp, -96, %sp
	add %i0, 1, %i0
	restore %i0, 0, %o0
	mov 1, %g1
	ta 0
`)
	rp, err := rtl.CompileRoutine(g, lv, prog.Base)
	if err != nil {
		t.Fatalf("CompileRoutine: %v", err)
	}
	e := &rtl.REnv{PC: prog.Base, NPC: prog.Base + 4, Bridge: &testBridge{mem: map[uint32]byte{}}}
	var gen uint64
	e.GenP = &gen
	e.R[14] = 0x7000 // %sp
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.R[8] != 43 {
		t.Errorf("o0=%d, want 43 (42 through the window and back +1)", e.R[8])
	}
	if len(e.Windows) != 0 {
		t.Errorf("window stack depth %d after balanced save/restore", len(e.Windows))
	}
	if !e.Halted || e.ExitCode != 43 {
		t.Errorf("halted=%v exit=%d, want halted with 43", e.Halted, e.ExitCode)
	}
}

// The entry must be a compiled head and a diamond compiles without
// stubs.
func TestRoutineDiamondStructure(t *testing.T) {
	g, lv, prog := buildRoutine(t, `
	cmp %o0, 0
	be elsepart
	nop
	mov 1, %l0
	ba join
	nop
elsepart: mov 2, %l0
join:	mov %l0, %o0
	mov 1, %g1
	ta 0
`)
	rp, err := rtl.CompileRoutine(g, lv, prog.Base)
	if err != nil {
		t.Fatalf("CompileRoutine: %v", err)
	}
	if _, ok := rp.Index[prog.Base]; !ok {
		t.Fatal("entry not in block index")
	}
	if rp.Stubs != 0 {
		t.Errorf("stubs=%d, want 0", rp.Stubs)
	}
	// Both arms produce the same halt; run the taken arm.
	e := &rtl.REnv{PC: prog.Base, NPC: prog.Base + 4, Bridge: &testBridge{mem: map[uint32]byte{}}}
	var gen uint64
	e.GenP = &gen
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.R[8] != 2 {
		t.Errorf("o0=%d, want 2 (else arm: %%o0 was 0)", e.R[8])
	}
}
