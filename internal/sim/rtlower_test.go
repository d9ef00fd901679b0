package sim

// Tests for the routine tier's lowering and composition: every
// definition of the sparc and mips descriptions against the
// interpreter, routine programs composed from assembled code, MIPS
// progen programs, and the content cache across machines.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eel/internal/asm"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/sparc"
	"eel/internal/spawn"
	"eel/internal/telemetry"
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
				if in.EndsBlock() {
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

// runRoutineSPARC assembles src at sweepBase and runs it on the
// routine tier, compiling synchronously at the first entry; the tier
// must have compiled the routine.  It returns the run's error.
func runRoutineSPARC(t *testing.T, src string) (*CPU, *asm.Program, error) {
	t.Helper()
	cpu, prog := load(t, src, sweepBase)
	cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	cpu.Engine, cpu.RoutineSync, cpu.RoutineHotThreshold = EngineRoutine, true, 1
	err := cpu.Run(1_000_000)
	if cpu.Counters().RoutinesCompiled == 0 {
		t.Fatal("the routine tier compiled no routine")
	}
	return cpu, prog, err
}

// A counted loop with a fused subcc/bne pair, ending in a clean
// syscall exit: register results, halt state, and exact instruction
// accounting against hand-counted interpreter behaviour.
func TestRoutineLoopSum(t *testing.T) {
	cpu, prog, err := runRoutineSPARC(t, `
	mov 0, %o0
	mov 5, %o1
loop:	add %o0, %o1, %o0
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cpu.Halted || cpu.ExitCode != 15 {
		t.Errorf("halted=%v exit=%d, want halted with 15", cpu.Halted, cpu.ExitCode)
	}
	if cpu.R[8] != 15 || cpu.R[9] != 0 {
		t.Errorf("o0=%d o1=%d, want 15, 0", cpu.R[8], cpu.R[9])
	}
	// 2 setup + 5 iterations of (add, subcc, bne, nop) + mov + ta.
	if want := uint64(2 + 5*4 + 2); cpu.InstCount != want {
		t.Errorf("InstCount=%d, want %d", cpu.InstCount, want)
	}
	if cpu.AnnulCount != 0 {
		t.Errorf("AnnulCount=%d, want 0", cpu.AnnulCount)
	}
	// Halt leaves PC at the trap (the interpreter skips finishStep).
	taPC := prog.Base + 7*4
	if cpu.PC != taPC || cpu.NPC != taPC+4 {
		t.Errorf("PC/NPC=%#x/%#x, want %#x/%#x", cpu.PC, cpu.NPC, taPC, taPC+4)
	}
}

// Memory traffic through the cpuEnv: a store then a load round-trips.
// A store into text bumps the generation: the routine deopts with the
// store retired and nothing after it run, here an illegal word that
// then faults on the lower tiers.
func TestRoutineMemAndGen(t *testing.T) {
	cpu, _, err := runRoutineSPARC(t, `
	sethi %hi(0x20000), %o2
	mov 77, %o3
	st %o3, [%o2]
	ld [%o2], %o4
	mov 1, %g1
	ta 0
`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if cpu.R[12] != 77 {
		t.Errorf("o4=%d, want 77 (store/load round-trip)", cpu.R[12])
	}
	if got := cpu.Mem.Read32(0x20000); got != 77 {
		t.Errorf("mem word = %d, want 77", got)
	}

	cpu, prog, err := runRoutineSPARC(t, `
	sethi %hi(0x10000), %o2
	mov 77, %o3
	st %o3, [%o2]
	.word 0
`)
	stPC := prog.Base + 2*4
	var f *Fault
	if !errors.As(err, &f) || f.PC != stPC+4 || !errors.Is(err, ErrIllegalInst) {
		t.Fatalf("run: %v, want an illegal instruction at %#x", err, stPC+4)
	}
	if k := cpu.Counters(); k.RoutineDeopts != 1 {
		t.Errorf("RoutineDeopts=%d, want 1 (the text store)", k.RoutineDeopts)
	}
	if cpu.PC != stPC+4 || cpu.InstCount != 3 {
		t.Errorf("after gen deopt PC=%#x InstCount=%d, want %#x, 3", cpu.PC, cpu.InstCount, stPC+4)
	}
	if got := cpu.Mem.Read32(prog.Base); got != 77 {
		t.Errorf("text word = %d, want 77 (the store retired)", got)
	}
}

// A delay slot that stops the routine after a register jump (SPARC
// retl, MIPS jr) — a faulting load, a text store, a halting trap —
// leaves the interpreter's instruction count, pc, fault and halt
// state, and a text store deopts once.
func TestRoutineDelaySlotStopsMatchInterpreter(t *testing.T) {
	const base = sweepBase
	sp := func(name string, rd, rs1 machine.Reg, imm int32) uint32 {
		return mustWord(sparc.EncodeOp3Imm(name, rd, rs1, imm))
	}
	mi := func(name string, rt, rs uint32, imm int32) uint32 { return mustWord(mips.EncodeI(name, rt, rs, imm)) }
	type slot struct {
		name   string
		word   uint32
		deopts uint64
	}
	isas := []struct {
		dec *spawn.TableDecoder
		// pre leaves the text base in a register, a value to store,
		// the exit call number, and the return address base+24; jump
		// (base+16) is the register jump, exit the trap at base+24.
		pre        []uint32
		jump, exit uint32
		slots      []slot
	}{
		{
			dec: sparc.NewDecoder(),
			pre: []uint32{
				mustWord(sparc.EncodeSethi(sparc.RegO2, base)),
				sp("or", sparc.RegO3, sparc.RegG0, 77),
				sp("or", sparc.RegG1, sparc.RegG0, SysExit),
				sp("or", sparc.RegO7, sparc.RegO2, 16), // retl returns to %o7+8
			},
			jump: sp("jmpl", sparc.RegG0, sparc.RegO7, 8),
			exit: mustWord(sparc.EncodeTa(0)),
			slots: []slot{
				{"fault", sp("ld", sparc.RegO1, sparc.RegO2, 1), 0},
				{"text store", sp("st", sparc.RegO3, sparc.RegO2, 0), 1},
				{"halt", mustWord(sparc.EncodeTa(0)), 0},
			},
		},
		{
			dec: mips.NewDecoder(),
			pre: []uint32{
				mustWord(mips.EncodeIU("lui", 8, 0, base>>16)),
				mi("addiu", 9, 0, 77),
				mi("addiu", 2, 0, SysExit),
				mi("addiu", 31, 8, 24),
			},
			jump: mustWord(mips.EncodeR("jr", 0, 31, 0)),
			exit: mustWord(mips.EncodeSyscall()),
			slots: []slot{
				{"fault", mi("lw", 10, 8, 1), 0},
				{"text store", mi("sw", 9, 8, 0), 1},
				{"halt", mustWord(mips.EncodeSyscall()), 0},
			},
		},
	}
	for _, isa := range isas {
		for _, s := range isa.slots {
			words := append(append([]uint32{}, isa.pre...), isa.jump, s.word, isa.exit)
			var res [2]string
			for i, eng := range []Engine{EngineInterp, EngineRoutine} {
				cpu := loadWords(t, isa.dec, base, words)
				cpu.Engine, cpu.RoutineSync, cpu.RoutineHotThreshold = eng, true, 1
				err := cpu.Run(100)
				res[i] = fmt.Sprintf("%v\n%s", err, cpu.ArchState())
				if eng != EngineRoutine {
					continue
				}
				if k := cpu.Counters(); k.RoutinesCompiled == 0 || k.RoutineDeopts != s.deopts {
					t.Errorf("%s %s: RoutinesCompiled=%d RoutineDeopts=%d, want >0 and %d",
						isa.dec.Name(), s.name, k.RoutinesCompiled, k.RoutineDeopts, s.deopts)
				}
			}
			if res[0] != res[1] {
				t.Errorf("%s %s: routine tier diverges from the interpreter:\n%s\nvs\n%s", isa.dec.Name(), s.name, res[1], res[0])
			}
		}
	}
}

// Register windows: save/restore keep the interpreter's stack
// discipline (new ins = old outs, fresh locals, underflow zeroes).
func TestRoutineWindows(t *testing.T) {
	cpu, _, err := runRoutineSPARC(t, `
	mov 42, %o0
	save %sp, -96, %sp
	add %i0, 1, %i0
	restore %i0, 0, %o0
	mov 1, %g1
	ta 0
`)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if cpu.R[8] != 43 {
		t.Errorf("o0=%d, want 43 (42 through the window and back +1)", cpu.R[8])
	}
	if len(cpu.windows) != 0 {
		t.Errorf("window stack depth %d after balanced save/restore", len(cpu.windows))
	}
	if !cpu.Halted || cpu.ExitCode != 43 {
		t.Errorf("halted=%v exit=%d, want halted with 43", cpu.Halted, cpu.ExitCode)
	}
}

// The entry must be a compiled head and a diamond compiles every
// block.
func TestRoutineDiamondStructure(t *testing.T) {
	src := `
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
`
	rp, prog := compileSPARC(t, src)
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
	cpu, _, err := runRoutineSPARC(t, src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if cpu.R[8] != 2 {
		t.Errorf("o0=%d, want 2 (else arm: %%o0 was 0)", cpu.R[8])
	}
}

// TestRoutinePCReaderLoweredOnce: a body word that reads pc is lowered
// once per routine compile, at its own address.  The first compile
// also derives each word's shared direct program (the chained tier's,
// which reads pc from the CPU); a compile of the same words elsewhere
// lowers only the pc readers again.  A pc reader CompileDirect
// refuses (a load after a store in one step) runs its buffered
// program, which reads pc from the CPU, and sees its own address too.
func TestRoutinePCReaderLoweredOnce(t *testing.T) {
	desc, err := spawn.ParseDesc(`
machine sparc
instruction{32} fields op 30:31, rd 25:29
register integer{32} R[32]
register integer{32} pc
pat rdpc is op=0
pat exit is op=1
pat rdpcm is op=2
sem rdpc is R[rd] := pc
sem exit is trap(0)
sem rdpcm is M[R[2]] := R[3], R[rd] := M[R[2]] + pc
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dec := spawn.NewDecoder(spawn.NewMemo(desc, nil), nil)
	words := []uint32{8 << 25, 9 << 25, 2<<30 | 10<<25, 1 << 30} // rdpc R[8]; rdpc R[9]; rdpcm R[10]; exit
	if telemetry.Default() == nil {
		defer telemetry.Disable()
	}
	compiles := telemetry.Enable().Counter("rtl.compiles_direct")
	for i, base := range []uint32{sweepBase, sweepBase + 0x100} {
		before := compiles.Value()
		cpu := loadWords(t, dec, base, words)
		cpu.R[1], cpu.R[3] = SysExit, 7
		cpu.Engine, cpu.RoutineSync, cpu.RoutineHotThreshold = EngineRoutine, true, 1
		if err := cpu.Run(10); err != nil || !cpu.Halted {
			t.Fatalf("at %#x: %v, halted=%v", base, err, cpu.Halted)
		}
		if n := cpu.Counters().RoutinesCompiled; n != 1 {
			t.Fatalf("at %#x: %d routines compiled, want 1", base, n)
		}
		if cpu.R[8] != base || cpu.R[9] != base+4 || cpu.R[10] != base+8 {
			t.Errorf("at %#x: R[8]=%#x R[9]=%#x R[10]=%#x, want each word's pc", base, cpu.R[8], cpu.R[9], cpu.R[10])
		}
		if m := cpu.Mem.Read32(0); m != 7 {
			t.Errorf("at %#x: M[0]=%d, want 7", base, m)
		}
		want := uint64(2) // the two direct pc readers, at their addresses
		if i == 0 {
			want += 4 // and each word's shared program (rdpcm's refused)
		}
		if got := compiles.Value() - before; got != want {
			t.Errorf("at %#x: %d direct compiles, want %d", base, got, want)
		}
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
