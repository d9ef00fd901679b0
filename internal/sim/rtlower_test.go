package sim

// Tests for the routine tier's lowering and composition: every
// definition of the sparc and mips descriptions against the
// interpreter, routine programs composed from assembled code, MIPS
// progen programs, and the content cache across machines.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eel/internal/asm"
	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/rtl"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

const sweepBase, sweepData = 0x10000, 0x20000

// sweepOutcome is one run's observable result.
type sweepOutcome struct {
	state, err string
	mem        *Memory
	compiled   uint64
}

// sweepRun runs words from sweepBase for maxSteps instructions on eng,
// from a register and memory state seeded by seed.
func sweepRun(t *testing.T, dec *spawn.TableDecoder, words []uint32, seed int64, maxSteps uint64, eng Engine) sweepOutcome {
	t.Helper()
	cpu := loadWords(t, dec, sweepBase, words)
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i < 32; i++ {
		switch {
		case seed%4 == 0: // divisors and indices of zero
		case rng.Intn(3) == 0:
			cpu.R[i] = sweepData + uint32(rng.Intn(64))
		default:
			cpu.R[i] = uint32(rng.Intn(17))
		}
	}
	if seed%3 == 0 {
		cpu.R[1], cpu.R[2] = SysExit, SysExit // sparc %g1, mips $v0: exit
	}
	cpu.R[15], cpu.R[31] = sweepBase+4*uint32(rng.Intn(len(words))), sweepBase+4*uint32(rng.Intn(len(words)))
	cpu.R[0] = 0
	cpu.Y, cpu.PSR, cpu.FSR = rng.Uint32(), rng.Uint32()&0xf00000, rng.Uint32()&0xc00
	for i := range cpu.F {
		cpu.F[i] = rng.Uint32()
	}
	for a := uint32(0); a < 128; a++ {
		cpu.Mem.SetByte(sweepData+a, byte(rng.Intn(256)))
	}
	cpu.Engine = eng
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1
	err := cpu.Run(maxSteps)
	o := sweepOutcome{state: cpu.ArchState(), mem: cpu.Mem, compiled: cpu.Counters().RoutinesCompiled}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestRoutineDefinitionSweep runs every definition of the sparc and
// mips descriptions, over a small operand sweep, as a one-block
// routine on the routine tier and under the interpreter (rtl.Exec):
// architected state, memory, fault string and stop pc must agree, and
// the routine tier must have compiled the routine.
func TestRoutineDefinitionSweep(t *testing.T) {
	retl := mustWord(sparc.EncodeOp3Imm("jmpl", sparc.RegG0, sparc.RegO7, 8))
	jr := mustWord(mips.EncodeR("jr", 0, 31, 0))
	for _, m := range []struct {
		name string
		desc *spawn.Desc
		dec  *spawn.TableDecoder
		ret  uint32
		nop  uint32
	}{
		{"sparc", sparc.Desc(), sparc.NewDecoder(), retl, sparc.Nop()},
		{"mips", mips.Desc(), mips.NewDecoder(), jr, 0},
	} {
		faults := map[string]int{}
		for _, def := range m.desc.Insts {
			rng := rand.New(rand.NewSource(int64(len(def.Name))))
			for v := int64(0); v < 12; v++ {
				word := def.Match | rng.Uint32()&^def.Mask
				in := m.dec.Decode(word)
				if in.Name() != def.Name {
					continue // an overlapping, more specific pattern
				}
				// The instruction, then a return: one block, or a
				// transfer and its slot followed by the return.
				words := []uint32{word, m.ret, m.nop}
				steps := uint64(3)
				if isTerm(in) {
					words = []uint32{word, m.nop, m.ret, m.nop}
					steps = 4
				}
				seed := v*131 + int64(def.Match%97)
				ref := sweepRun(t, m.dec, words, seed, steps, EngineInterp)
				got := sweepRun(t, m.dec, words, seed, steps, EngineRoutine)
				what := fmt.Sprintf("%s %s (%#08x) seed %d", m.name, in, word, seed)
				if got.compiled == 0 {
					t.Errorf("%s: routine tier did not compile the routine", what)
				}
				if got.err != ref.err {
					t.Errorf("%s: error %q, interpreter %q", what, got.err, ref.err)
				}
				if got.state != ref.state {
					t.Errorf("%s: state\n%s\ninterpreter\n%s", what, got.state, ref.state)
				}
				if addr, ok := ref.mem.Diff(got.mem); !ok {
					t.Errorf("%s: memory diverges at %#x", what, addr)
				}
				for _, f := range []string{"division by zero", "misaligned", "unknown system call", "step limit"} {
					if strings.Contains(ref.err, f) {
						faults[f]++
						faults[f+" "+def.Name]++
					}
				}
				if strings.Contains(ref.state, "halted=true") {
					faults["halt"]++
					faults["halt "+def.Name]++
				}
			}
		}
		t.Logf("%s outcomes: %v", m.name, faults)
		want := []string{"step limit", "division by zero udiv", "division by zero sdiv",
			"misaligned ld", "misaligned st", "misaligned ldd", "misaligned std",
			"misaligned swap", "halt ta"}
		if m.name == "mips" {
			want = []string{"step limit", "misaligned lw", "misaligned sw", "halt syscall"}
		}
		for _, f := range want {
			if faults[f] == 0 {
				t.Errorf("%s sweep never reached %q", m.name, f)
			}
		}
	}
}

// testBridge is a minimal RBridge: big-endian byte-map memory and the
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
	if e.V[1] == SysExit {
		e.Halted = true
		e.ExitCode = e.V[8]
		return nil
	}
	return fmt.Errorf("bad syscall %d", e.V[1])
}

// compileSPARC assembles src and composes its routine program.
func compileSPARC(t *testing.T, src string) (*routineProg, *asm.Program) {
	t.Helper()
	prog, err := asm.Assemble(src, sweepBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ent := rtCompileText(sparc.NewDecoder(), prog.Bytes, prog.Base)
	if ent.prog == nil {
		t.Fatalf("compile: %v (at %#x)", ent.err, ent.pc)
	}
	return ent.prog, prog
}

// newREnv returns a routine environment entered at pc over br.
func newREnv(pc uint32, br rtl.RBridge) *rtl.REnv {
	e := &rtl.REnv{PC: pc, NPC: pc + 4, Bridge: br, GenP: new(uint64)}
	e.ResetCC()
	return e
}

// runRoutineProg drives a routineProg as the emulator's runner does:
// body stops finalized from the op index, terminators self-finalizing,
// re-entry at exits that land on a compiled head.
func runRoutineProg(t *testing.T, p *routineProg, e *rtl.REnv) error {
	t.Helper()
	k, ok := p.head(e.PC)
	if !ok {
		t.Fatalf("entry %#x not a compiled head", e.PC)
	}
	for steps := 0; ; steps++ {
		if steps > 1_000_000 {
			t.Fatal("routine runner livelock")
		}
		blk := &p.blocks[k]
		for i, op := range blk.ops {
			if op(e) {
				pc := blk.base + uint32(4*i)
				switch e.StopKind {
				case rtl.StopFault:
					e.Insts += uint64(i)
					e.PC, e.NPC, e.StopPC = pc, pc+4, pc
					return e.StopErr
				case rtl.StopHalt:
					e.Insts += uint64(i) + 1
					e.PC, e.NPC = pc, pc+4
					return nil
				default: // StopGen
					e.Insts += uint64(i) + 1
					e.PC, e.NPC = pc+4, pc+8
					return nil
				}
			}
		}
		e.Insts += uint64(len(blk.ops))
		next := blk.term(e)
		if next >= 0 {
			k = next
			continue
		}
		if next == rtl.RTermExit {
			if nk, ok := p.head(e.PC); ok && e.NPC == e.PC+4 {
				k = nk
				continue
			}
			return nil
		}
		if e.StopKind == rtl.StopFault {
			return e.StopErr
		}
		return nil
	}
}

// A counted loop with a fused subcc/bne pair, ending in a clean
// syscall exit: register results, halt state, and exact instruction
// accounting against hand-counted interpreter behaviour.
func TestRoutineLoopSum(t *testing.T) {
	rp, prog := compileSPARC(t, `
	mov 0, %o0
	mov 5, %o1
loop:	add %o0, %o1, %o0
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
`)
	e := newREnv(prog.Base, &testBridge{mem: map[uint32]byte{}})
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !e.Halted || e.ExitCode != 15 {
		t.Errorf("halted=%v exit=%d, want halted with 15", e.Halted, e.ExitCode)
	}
	if e.V[8] != 15 || e.V[9] != 0 {
		t.Errorf("o0=%d o1=%d, want 15, 0", e.V[8], e.V[9])
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
	rp, prog := compileSPARC(t, `
	sethi %hi(0x20000), %o2
	mov 77, %o3
	st %o3, [%o2]
	ld [%o2], %o4
	mov 1, %g1
	ta 0
`)
	br := &testBridge{mem: map[uint32]byte{}}
	e := newREnv(prog.Base, br)
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.V[12] != 77 {
		t.Errorf("o4=%d, want 77 (store/load round-trip)", e.V[12])
	}
	got := binary.BigEndian.Uint32([]byte{br.mem[0x20000], br.mem[0x20001], br.mem[0x20002], br.mem[0x20003]})
	if got != 77 {
		t.Errorf("mem word = %d, want 77", got)
	}

	// A generation bump observed by the next store must deopt with
	// the store retired.
	e2 := newREnv(prog.Base, &testBridge{mem: map[uint32]byte{}})
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
	rp, prog := compileSPARC(t, `
	mov 42, %o0
	save %sp, -96, %sp
	add %i0, 1, %i0
	restore %i0, 0, %o0
	mov 1, %g1
	ta 0
`)
	e := newREnv(prog.Base, &testBridge{mem: map[uint32]byte{}})
	e.V[14] = 0x7000 // %sp
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.V[8] != 43 {
		t.Errorf("o0=%d, want 43 (42 through the window and back +1)", e.V[8])
	}
	if len(e.Windows) != 0 {
		t.Errorf("window stack depth %d after balanced save/restore", len(e.Windows))
	}
	if !e.Halted || e.ExitCode != 43 {
		t.Errorf("halted=%v exit=%d, want halted with 43", e.Halted, e.ExitCode)
	}
}

// The entry must be a compiled head and a diamond compiles every
// block.
func TestRoutineDiamondStructure(t *testing.T) {
	rp, prog := compileSPARC(t, `
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
	if _, ok := rp.head(prog.Base); !ok {
		t.Fatal("entry not in block index")
	}
	heads := 0
	for _, k := range rp.heads {
		if k >= 0 {
			heads++
		}
	}
	if heads != len(rp.blocks) || len(rp.blocks) != 4 {
		t.Errorf("%d blocks, %d enterable, want 4 and 4", len(rp.blocks), heads)
	}
	e := newREnv(prog.Base, &testBridge{mem: map[uint32]byte{}})
	if err := runRoutineProg(t, rp, e); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.V[8] != 2 {
		t.Errorf("o0=%d, want 2 (else arm: %%o0 was 0)", e.V[8])
	}
}

// TestRoutineMatchesInterpreterMIPS: MIPS progen programs on the
// routine tier compile routines and match the interpreter.
func TestRoutineMatchesInterpreterMIPS(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := progen.DefaultConfig(seed)
		cfg.ISA = "mips"
		p := progen.MustGenerate(cfg)
		var outs [2]bytes.Buffer
		var cpus [2]*CPU
		for i, eng := range []Engine{EngineInterp, EngineRoutine} {
			cpu := LoadFileWith(mips.NewDecoder(), p.File, &outs[i])
			cpu.Engine = eng
			cpu.RoutineSync = true
			cpu.RoutineHotThreshold = 1
			if err := cpu.Run(50_000_000); err != nil {
				t.Fatalf("seed %d %s: %v", seed, eng, err)
			}
			cpus[i] = cpu
		}
		if k := cpus[1].Counters(); k.RoutinesCompiled == 0 {
			t.Errorf("seed %d: no MIPS routines compiled", seed)
		}
		if a, b := cpus[0].ArchState(), cpus[1].ArchState(); a != b {
			t.Errorf("seed %d: state diverges:\n%s\nvs interpreter\n%s", seed, b, a)
		}
		if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
			t.Errorf("seed %d: output diverges", seed)
		}
		if addr, ok := cpus[0].Mem.Diff(cpus[1].Mem); !ok {
			t.Errorf("seed %d: memory diverges at %#x", seed, addr)
		}
	}
}

// TestRoutineCacheKeyedByMachine: the same bytes at the same addresses
// are different programs under different descriptions, so the shared
// routine cache must not hand one machine's program to another.  The
// sparc run compiles and caches the routine first; the mips run then
// asks the cache for the same text and entry.
func TestRoutineCacheKeyedByMachine(t *testing.T) {
	words := []uint32{
		mustWord(sparc.EncodeOp3Imm("or", sparc.RegO1, sparc.RegG0, 5)),
		mustWord(sparc.EncodeOp3Imm("subcc", sparc.RegO1, sparc.RegO1, 1)),
		mustWord(sparc.EncodeBranch("bne", false, -1)),
		sparc.Nop(),
		mustWord(sparc.EncodeOp3Imm("or", sparc.RegG1, sparc.RegG0, 1)),
		mustWord(sparc.EncodeTa(0)),
		mustWord(sparc.EncodeOp3Imm("jmpl", sparc.RegG0, sparc.RegO7, 8)),
		sparc.Nop(),
	}
	for _, dec := range []*spawn.TableDecoder{sparc.NewDecoder(), mips.NewDecoder()} {
		var res [2]string
		compiled := uint64(0)
		for i, eng := range []Engine{EngineInterp, EngineRoutine} {
			cpu := loadWords(t, dec, sweepBase, words)
			cpu.Engine = eng
			cpu.RoutineSync = true
			cpu.RoutineHotThreshold = 1
			err := cpu.Run(200)
			res[i] = fmt.Sprintf("%v\n%s", err, cpu.ArchState())
			compiled = cpu.Counters().RoutinesCompiled
		}
		if res[0] != res[1] {
			t.Errorf("%s: routine tier diverges from its interpreter:\n%s\nvs\n%s", dec.Name(), res[1], res[0])
		}
		if dec.Name() == "sparc" && compiled == 0 {
			t.Errorf("%s: routine tier not exercised", dec.Name())
		}
	}
}
