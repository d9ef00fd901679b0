package sim

// Tests for slot-lowered registers: compiled programs against the
// interpreter on every definition of every machine, the float file's
// declared count, the routine tier's flag flush before a fallback
// program touches an extended slot, and allocation-free steady state.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eel/internal/alpha"
	"eel/internal/asm"
	"eel/internal/mips"
	"eel/internal/rtl"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// slotOutcome is what one execution of one instruction left behind.
type slotOutcome struct {
	cpu *CPU
	err string
}

// pipe renders the pc effects an instruction recorded.
func (o slotOutcome) pipe() string {
	c := o.cpu
	return fmt.Sprintf("delayed=%v/%#x immediate=%v/%#x annul=%v halted=%v/%d windows=%v",
		c.hasDelayed, c.delayedTarget, c.hasImmediate, c.immediateTarget, c.annulNext, c.Halted, c.ExitCode, c.windows)
}

// slotState returns a CPU over dec in the register and memory state
// seeded by seed: small values, data addresses and random words, with
// the trap model's number register on exit or an unknown call.  The
// hardwired zero's slot holds a random word too: reads of it must
// still yield 0, and writes must leave it alone.
func slotState(dec *spawn.TableDecoder, seed int64) *CPU {
	c := New(dec, NewMemory())
	rng := rand.New(rand.NewSource(seed))
	for i := range c.regs() {
		switch rng.Intn(3) {
		case 0:
			c.regs()[i] = uint32(rng.Intn(17))
		case 1:
			c.regs()[i] = sweepData + 4*uint32(rng.Intn(16)) + uint32(rng.Intn(2))
		default:
			c.regs()[i] = rng.Uint32()
		}
	}
	c.R[c.arch.Trap.NumReg] = []uint32{SysExit, 99}[rng.Intn(2)]
	if rng.Intn(2) == 0 {
		c.windows = append(c.windows, window{Locals: [8]uint32{1, 2, 3}, Ins: [8]uint32{4, 5, 6}})
	}
	for a := uint32(0); a < 128; a++ {
		c.Mem.SetByte(sweepData+a, byte(rng.Intn(256)))
	}
	c.PC, c.NPC = sweepBase, sweepBase+4
	return c
}

// slotRun executes sem once on a fresh CPU in seed's state: by the
// interpreter when p is nil, else by p.
func slotRun(dec *spawn.TableDecoder, sem *spawn.InstSem, seed int64, p *rtl.Prog) slotOutcome {
	return slotExec(dec, sem, seed, func(c *CPU) error {
		if p == nil {
			return rtl.Exec(sem.Def.Sem, &c.env)
		}
		return p.Run(&c.rtlCtx)
	})
}

// slotExec executes sem once by run on a fresh CPU in seed's state,
// with the compiled programs' Ctx bound to it.
func slotExec(dec *spawn.TableDecoder, sem *spawn.InstSem, seed int64, run func(c *CPU) error) slotOutcome {
	c := slotState(dec, seed)
	c.env.CompileEnv = sem.CompileEnv()
	c.rtlCtx.Bind(&c.env, c.regs())
	err := run(c)
	o := slotOutcome{cpu: c}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// TestSlotProgramsMatchExec runs every definition of each machine, for
// sampled field values, from random register states through Compile
// and (when it accepts the word) CompileDirect, with pc read at run
// time and folded to the address the word runs at, and requires the
// registers, memory, pc effects and error of the interpreter.  Alpha
// has no program generator, so this is its only instruction-level
// lockstep.
func TestSlotProgramsMatchExec(t *testing.T) {
	for _, m := range []struct {
		name string
		dec  *spawn.TableDecoder
	}{{"sparc", sparc.NewDecoder()}, {"mips", mips.NewDecoder()}, {"alpha", alpha.NewDecoder()}} {
		t.Run(m.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			var compiled, direct, folded int
			for _, def := range m.dec.Desc().Insts {
				for k := 0; k < 12; k++ {
					word := def.Match | rng.Uint32()&^def.Mask
					if k == 0 {
						word = def.Match // every operand field zero: the hardwired zero, where there is one
					}
					inst := m.dec.Decode(word)
					sem, ok := inst.Sem().(*spawn.InstSem)
					if !inst.Valid() || !ok || sem.Def != def {
						continue
					}
					p, err := sem.Compiled()
					if err != nil {
						continue
					}
					compiled++
					dp := sem.CompiledDirect()
					if dp != nil {
						direct++
					}
					at := uint64(sweepBase) // slotState's pc
					dpAt, _ := rtl.CompileDirect(sem.Def.Sem, sem.CompileEnv(), &at)
					if dp != nil && dp.Flags()&rtl.FlagPCRead != 0 {
						folded++
					}
					for s := int64(0); s < 4; s++ {
						seed := rng.Int63()
						want := slotRun(m.dec, sem, seed, nil)
						for _, got := range []slotOutcome{slotRun(m.dec, sem, seed, p), dpRun(m.dec, sem, seed, dp), dpRun(m.dec, sem, seed, dpAt)} {
							if got.cpu == nil {
								continue
							}
							where := fmt.Sprintf("%s %08x seed %d", def.Name, word, seed)
							if got.err != want.err {
								t.Fatalf("%s: error %q, interpreter %q", where, got.err, want.err)
							}
							if *got.cpu.regs() != *want.cpu.regs() {
								t.Fatalf("%s: registers\n%v\ninterpreter\n%v", where, *got.cpu.regs(), *want.cpu.regs())
							}
							if a, b := got.pipe(), want.pipe(); a != b {
								t.Fatalf("%s: pc effects %s, interpreter %s", where, a, b)
							}
							if addr, ok := got.cpu.Mem.Diff(want.cpu.Mem); !ok {
								t.Fatalf("%s: memory diverges at %#x", where, addr)
							}
						}
					}
				}
			}
			if compiled == 0 || direct == 0 || folded == 0 {
				t.Fatalf("compiled %d words, %d direct, %d reading pc", compiled, direct, folded)
			}
			t.Logf("%d words compiled, %d direct, %d reading pc", compiled, direct, folded)
		})
	}
}

// dpRun runs a direct program's op list as the executor does, or
// gives no outcome without one.
func dpRun(dec *spawn.TableDecoder, sem *spawn.InstSem, seed int64, dp *rtl.Direct) slotOutcome {
	if dp == nil {
		return slotOutcome{}
	}
	return slotExec(dec, sem, seed, func(c *CPU) error { return dp.Run(&c.rtlCtx) })
}

// TestFloatCountBoundsRegisters: a float file declares its size, and
// an index past it is no register — an UnknownReg from the
// interpreter and a CompileError from Compile, on every engine, even
// where the register array has room.
func TestFloatCountBoundsRegisters(t *testing.T) {
	desc, err := spawn.ParseDesc(`
machine sparc
instruction{32} fields op 30:31, rd 25:29, rs 0:4
register integer{32} R[32]
register float{32} F[16]
register integer{32} pc
pat rdf is op=0
pat wrf is op=1
pat okf is op=2
sem rdf is R[rd] := F[20]
sem wrf is F[20] := R[rs]
sem okf is F[15] := R[rs]
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dec := spawn.NewDecoder(spawn.NewMemo(desc, nil), nil)
	for _, c := range []struct {
		word uint32
		msg  string
	}{{0<<30 | 1<<25, "read of unknown register F[20]"}, {1<<30 | 1, "write of unknown register F[20]"}} {
		sem := dec.Decode(c.word).Sem().(*spawn.InstSem)
		var ce *rtl.CompileError
		if _, err := sem.Compiled(); !errors.As(err, &ce) {
			t.Errorf("%s: Compile = %v, want a CompileError", sem.Def.Name, err)
		}
		if sem.CompiledDirect() != nil {
			t.Errorf("%s: CompileDirect accepted F[20]", sem.Def.Name)
		}
		for _, eng := range []Engine{EngineInterp, EngineTranslated, EngineChained, EngineRoutine} {
			cpu := loadWords(t, dec, sweepBase, []uint32{c.word})
			cpu.Engine, cpu.RoutineSync, cpu.RoutineHotThreshold = eng, true, 1
			if err := cpu.Run(10); err == nil || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("%s on %s: %v, want %q", sem.Def.Name, eng, err, c.msg)
			}
		}
	}
	sem := dec.Decode(2<<30 | 3).Sem().(*spawn.InstSem)
	if _, err := sem.Compiled(); err != nil {
		t.Errorf("F[15] does not compile: %v", err)
	}
}

// TestRoutineFallbackFlushesCC: an instruction the routine tier runs
// through its compiled-program fallback (addx and subx read the carry
// from PSR) right after a lazily recorded subcc must see the flags
// materialized, not the PSR the routine was entered with.
func TestRoutineFallbackFlushesCC(t *testing.T) {
	prog, err := asm.Assemble(`
	mov 3, %o0
	mov 7, %o1
	subcc %o0, %o1, %o2
	addx %o0, 0, %o3
	subcc %o1, %o0, %o2
	subx %o1, 0, %o4
	subcc %o0, %o1, %o2
	subx %o1, 0, %o5
	mov %o3, %o0
	mov 1, %g1
	ta 0
`, sweepBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var words []uint32
	for i := 0; i+4 <= len(prog.Bytes); i += 4 {
		words = append(words, uint32(prog.Bytes[i])<<24|uint32(prog.Bytes[i+1])<<16|uint32(prog.Bytes[i+2])<<8|uint32(prog.Bytes[i+3]))
	}
	var states [2]string
	for i, eng := range []Engine{EngineInterp, EngineRoutine} {
		cpu := loadWords(t, sparc.NewDecoder(), sweepBase, words)
		cpu.PSR = 0xf00000 // stale flags: every condition code set
		cpu.Engine, cpu.RoutineSync, cpu.RoutineHotThreshold = eng, true, 1
		if err := cpu.Run(100); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if eng == EngineRoutine && cpu.Counters().RoutinesCompiled == 0 {
			t.Fatal("the routine tier compiled no routine")
		}
		if cpu.R[11] != 4 || cpu.R[12] != 7 || cpu.R[13] != 6 {
			t.Errorf("%s: addx/subx read stale carry: o3=%d o4=%d o5=%d, want 4, 7, 6", eng, cpu.R[11], cpu.R[12], cpu.R[13])
		}
		states[i] = cpu.ArchState()
	}
	if states[0] != states[1] {
		t.Errorf("routine tier diverges:\n%s\ninterpreter\n%s", states[1], states[0])
	}
}

// TestCompiledEnginesSteadyStateAllocs: once a hot loop is translated,
// further Run slices of the translated and chained engines allocate
// nothing — the register array and the compiled programs' Ctx stay
// bound in the CPU.
func TestCompiledEnginesSteadyStateAllocs(t *testing.T) {
	prog, err := asm.Assemble(`
	mov 0, %o0
	mov 500, %o1
loop:	add %o0, %o1, %o0
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
`, sweepBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var words []uint32
	for i := 0; i+4 <= len(prog.Bytes); i += 4 {
		words = append(words, uint32(prog.Bytes[i])<<24|uint32(prog.Bytes[i+1])<<16|uint32(prog.Bytes[i+2])<<8|uint32(prog.Bytes[i+3]))
	}
	for _, eng := range []Engine{EngineTranslated, EngineChained} {
		cpu := loadWords(t, sparc.NewDecoder(), sweepBase, words)
		cpu.Engine = eng
		again := func() {
			cpu.Halted, cpu.PC, cpu.NPC = false, sweepBase, sweepBase+4
			if err := cpu.Run(1 << 62); err != nil || cpu.R[8] != 125250 {
				t.Fatalf("%s: err %v, o0=%d", eng, err, cpu.R[8])
			}
		}
		for i := 0; i < 3; i++ {
			again() // translate, promote, build traces
		}
		if n := testing.AllocsPerRun(20, again); n != 0 {
			t.Errorf("%s: %.1f allocations per steady-state Run, want 0", eng, n)
		}
	}
}
