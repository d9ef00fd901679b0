package sim

// Tests for the machine-generic substrate: the DCTI-couple builder
// bail-out, the load-time description-shape validation, and the
// DelaySlots()==0 execution paths (the Alpha shape).

import (
	"testing"

	"eel/internal/alpha"
	"eel/internal/machine"
	_ "eel/internal/mips" // register the MIPS ArchInfo
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// mustWord unwraps an encoder result (panicking keeps call sites
// usable directly inside composite literals).
func mustWord(w uint32, err error) uint32 {
	if err != nil {
		panic(err)
	}
	return w
}

// loadWords builds a CPU over a text segment of raw words.
func loadWords(t *testing.T, dec *spawn.TableDecoder, base uint32, words []uint32) *CPU {
	t.Helper()
	mem := NewMemory()
	for i, w := range words {
		mem.Write32(base+uint32(4*i), w)
	}
	cpu := New(dec, mem)
	cpu.TextStart, cpu.TextEnd = base, base+uint32(4*len(words))
	cpu.Reset(base, DefaultStack)
	return cpu
}

// assertNoCoupleInBlock fails if any instruction in b sits in the
// delay slot of an unconditional transfer while being a control
// transfer itself — the DCTI-couple shape the superblock machinery
// must never admit.
func assertNoCoupleInBlock(t *testing.T, b *tblock) {
	t.Helper()
	for i := 1; i < len(b.insts); i++ {
		prev := b.insts[i-1].inst
		cur := b.insts[i].inst
		if uncondTransfer(prev) && prev.DelaySlots() > 0 &&
			(cur.Category().IsControl() || cur.DelaySlots() > 0) {
			t.Errorf("block %#x admits DCTI couple: %s at %#x in delay slot of %s at %#x",
				b.pc, cur.Name(), b.insts[i].pc, prev.Name(), b.insts[i-1].pc)
		}
	}
}

// TestDCTICoupleExcludedFromBlocks is the pinned repro for the
// superblock-builder bug: a control transfer in another transfer's
// delay slot (a SPARC DCTI couple) must close the block at the first
// transfer instead of being translated into it.  On the pre-fix
// builder the couple's second transfer lands inside the block and
// this test fails.
func TestDCTICoupleExcludedFromBlocks(t *testing.T) {
	const base = 0x10000
	ba1 := mustWord(sparc.EncodeBranch("ba", false, 4)) // → base+0x10
	ba2 := mustWord(sparc.EncodeBranch("ba", false, 6)) // slot CTI → base+0x1c
	nop := sparc.Nop()
	cpu := loadWords(t, sparc.NewDecoder(), base, []uint32{
		ba1, ba2, nop, nop, nop, nop, nop, nop,
	})
	b := cpu.buildBlock(base)
	if len(b.insts) != 1 {
		t.Errorf("block at couple head has %d instructions, want 1 (the first transfer only)", len(b.insts))
	}
	assertNoCoupleInBlock(t, b)

	// call with a branch in its slot: the same shape through a
	// different transfer category.
	callw := mustWord(sparc.EncodeCall(8))
	cpu2 := loadWords(t, sparc.NewDecoder(), base, []uint32{
		callw, ba2, nop, nop, nop, nop, nop, nop, nop, nop,
	})
	b2 := cpu2.buildBlock(base)
	if len(b2.insts) != 1 {
		t.Errorf("call-couple block has %d instructions, want 1", len(b2.insts))
	}
	assertNoCoupleInBlock(t, b2)
}

// TestDCTICoupleLockstep executes a DCTI couple to completion in all
// three per-instruction engines and checks the architected results
// agree: the couple's interleaved delayed transfers must survive the
// block boundary the builder now places between them.
func TestDCTICoupleLockstep(t *testing.T) {
	const base = 0x10000
	words := []uint32{
		mustWord(sparc.EncodeBranch("ba", false, 4)), // → base+0x10
		mustWord(sparc.EncodeBranch("ba", false, 6)), // slot: → base+0x1c
		sparc.Nop(), // skipped
		sparc.Nop(), // skipped
		mustWord(sparc.EncodeOp3Imm("or", sparc.RegO0, sparc.RegG0, 42)), // L1: one inst, then off to L2
		sparc.Nop(), // not reached
		sparc.Nop(), // not reached
		mustWord(sparc.EncodeOp3Imm("or", sparc.RegG1, sparc.RegG0, 1)), // L2: exit(…)
		mustWord(sparc.EncodeTa(0)),
	}
	type result struct {
		exit  uint32
		insts uint64
		state string
	}
	var results []result
	for _, eng := range []Engine{EngineInterp, EngineTranslated, EngineChained} {
		cpu := loadWords(t, sparc.NewDecoder(), base, words)
		cpu.Engine = eng
		if err := cpu.Run(10_000); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !cpu.Halted {
			t.Fatalf("%s: did not halt", eng)
		}
		results = append(results, result{cpu.ExitCode, cpu.InstCount, cpu.ArchState()})
	}
	want := result{exit: 42, insts: 5}
	for i, r := range results {
		if r.exit != want.exit || r.insts != want.insts {
			t.Errorf("engine %d: exit=%d insts=%d, want exit=%d insts=%d",
				i, r.exit, r.insts, want.exit, want.insts)
		}
		if r.state != results[0].state {
			t.Errorf("engine %d final state diverges:\n%s\nvs interp:\n%s", i, r.state, results[0].state)
		}
	}
}

// TestWordSizeRejectedAtLoad pins the loud failure mode for
// descriptions whose instruction width the substrate does not
// support: New must panic at CPU construction, not mis-stride
// silently mid-block.
func TestWordSizeRejectedAtLoad(t *testing.T) {
	desc, err := spawn.ParseDesc(`
machine tiny16
instruction{16} fields op 0:15
register integer{32} R[32]
pat nop16 is op=0
sem nop16 is R[1] := R[1]
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dec := spawn.NewDecoder(spawn.NewMemo(desc, nil), nil)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("New accepted a 2-byte instruction stride without panicking")
		}
	}()
	New(dec, NewMemory())
}

// TestUnregisteredArchRejectedAtLoad: a well-formed description whose
// machine has no ArchInfo registration must fail at New — the trap
// model and tier gates would otherwise be silently absent.
func TestUnregisteredArchRejectedAtLoad(t *testing.T) {
	desc, err := spawn.ParseDesc(`
machine neverregistered
instruction{32} fields op 0:31
register integer{32} R[32]
pat nop32 is op=0
sem nop32 is R[1] := R[1]
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	dec := spawn.NewDecoder(spawn.NewMemo(desc, nil), nil)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("New accepted an unregistered architecture without panicking")
		}
	}()
	New(dec, NewMemory())
}

// alphaExit emits the two-instruction exit idiom: v0 := 1, callsys.
func alphaExit() []uint32 {
	return []uint32{
		mustWord(alpha.EncodeOpLit("addl", 31, 1, 0)), // $v0 := 1 (SysExit)
		mustWord(alpha.EncodeCallPal(0x83)),
	}
}

// runAlpha runs the words in every engine and checks the architected
// results agree, returning the interpreter's CPU.  The routine tier
// promotes at the first block.
func runAlpha(t *testing.T, words []uint32) *CPU {
	t.Helper()
	const base = 0x10000
	var first *CPU
	var firstState string
	for _, eng := range []Engine{EngineInterp, EngineTranslated, EngineChained, EngineRoutine} {
		cpu := loadWords(t, alpha.NewDecoder(), base, words)
		cpu.Engine = eng
		cpu.RoutineSync = true
		cpu.RoutineHotThreshold = 1
		if err := cpu.Run(100_000); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if !cpu.Halted {
			t.Fatalf("%s: did not halt", eng)
		}
		if cpu.AnnulCount != 0 {
			t.Errorf("%s: AnnulCount=%d on a machine with no delay slots (phantom delay-slot commit)",
				eng, cpu.AnnulCount)
		}
		if eng == EngineRoutine && cpu.Counters().RoutinesCompiled == 0 {
			t.Error("routine tier compiled no routine")
		}
		if first == nil {
			first, firstState = cpu, cpu.ArchState()
			continue
		}
		if cpu.ExitCode != first.ExitCode || cpu.InstCount != first.InstCount {
			t.Errorf("%s: exit=%d insts=%d, interp got exit=%d insts=%d",
				eng, cpu.ExitCode, cpu.InstCount, first.ExitCode, first.InstCount)
		}
		if s := cpu.ArchState(); s != firstState {
			t.Errorf("%s final state diverges:\n%s\nvs interp:\n%s", eng, s, firstState)
		}
	}
	return first
}

// TestAlphaNoDelaySlotTransfer: an unconditional branch on a
// DelaySlots()==0 machine must transfer immediately — the next
// sequential instruction must not execute, no slot is committed, and
// the dispatcher's NPC handling stays sequential at the target.
func TestAlphaNoDelaySlotTransfer(t *testing.T) {
	const base = 0x10000
	words := []uint32{
		mustWord(alpha.EncodeMem("lda", 16, 31, 42)),  // $a0 := 42
		mustWord(alpha.EncodeBranch("br", 31, 1)),     // → +2 words (skip the poison)
		mustWord(alpha.EncodeMem("lda", 16, 31, 99)),  // must NOT execute
		mustWord(alpha.EncodeOpLit("addl", 31, 1, 0)), // $v0 := 1
		mustWord(alpha.EncodeCallPal(0x83)),           // exit($a0)
	}
	cpu := runAlpha(t, words)
	if cpu.ExitCode != 42 {
		t.Errorf("exit=%d, want 42 (the branch shadow executed)", cpu.ExitCode)
	}
	if cpu.InstCount != 4 {
		t.Errorf("InstCount=%d, want exactly 4 (lda, br, addl, call_pal)", cpu.InstCount)
	}

	// Block construction: the superblock must end at the transfer
	// itself — zero delay slots means zero instructions after it.
	bc := loadWords(t, alpha.NewDecoder(), base, words)
	b := bc.buildBlock(base)
	if len(b.insts) != 2 {
		t.Errorf("block has %d instructions, want 2 (lda, br) — a phantom delay slot was admitted", len(b.insts))
	}
	if last := b.insts[len(b.insts)-1].inst; last.DelaySlots() != 0 {
		t.Errorf("alpha %s reports %d delay slots", last.Name(), last.DelaySlots())
	}
}

// TestAlphaLoopLockstep runs a countdown loop (conditional backward
// branch, no delay slots) through all engines: block re-entry and the
// dispatcher's NPC handling must agree with single-step execution.
func TestAlphaLoopLockstep(t *testing.T) {
	words := []uint32{
		mustWord(alpha.EncodeMem("lda", 1, 31, 5)),    // counter $1 := 5
		mustWord(alpha.EncodeMem("lda", 2, 31, 0)),    // acc $2 := 0
		mustWord(alpha.EncodeOpLit("addl", 2, 3, 2)),  // loop: $2 += 3
		mustWord(alpha.EncodeOpLit("subl", 1, 1, 1)),  // $1 -= 1
		mustWord(alpha.EncodeBranch("bne", 1, -3)),    // → loop while $1 != 0
		mustWord(alpha.EncodeOp("bis", 2, 31, 16)),    // $a0 := $2
		mustWord(alpha.EncodeOpLit("addl", 31, 1, 0)), // $v0 := 1
		mustWord(alpha.EncodeCallPal(0x83)),           // exit(15)
	}
	cpu := runAlpha(t, words)
	if cpu.ExitCode != 15 {
		t.Errorf("exit=%d, want 15", cpu.ExitCode)
	}
	// 2 setup + 5 iterations × 3 + 3 tail (bis, addl, call_pal).
	if want := uint64(2 + 5*3 + 3); cpu.InstCount != want {
		t.Errorf("InstCount=%d, want %d", cpu.InstCount, want)
	}
}

// TestAlphaIndirectJumpLockstep drives the inline-cache exit path on
// the DelaySlots()==0 shape: jsr/retj through a register.
func TestAlphaIndirectJumpLockstep(t *testing.T) {
	// sub sits at base+0x18 = 0x10018; materialize the address in two
	// halves since it exceeds a single 16-bit displacement.
	words := []uint32{
		mustWord(alpha.EncodeMem("ldah", 27, 31, 1)),   // $27 := 0x10000
		mustWord(alpha.EncodeMem("lda", 27, 27, 0x18)), // $27 := sub
		mustWord(alpha.EncodeJump("jsr", 26, 27)),      // call sub, link $26
		mustWord(alpha.EncodeOp("bis", 0, 31, 16)),     // $a0 := $v0
		mustWord(alpha.EncodeOpLit("addl", 31, 1, 0)),  // $v0 := 1
		mustWord(alpha.EncodeCallPal(0x83)),            // exit(7)
		mustWord(alpha.EncodeMem("lda", 0, 31, 7)),     // sub: $v0 := 7
		mustWord(alpha.EncodeJump("retj", 31, 26)),     // return
	}
	cpu := runAlpha(t, words)
	if cpu.ExitCode != 7 {
		t.Errorf("exit=%d, want 7", cpu.ExitCode)
	}
	if cpu.InstCount != 8 {
		t.Errorf("InstCount=%d, want 8", cpu.InstCount)
	}
}

// TestMachineArchRegistry pins the registry contents this repo
// ships: three architectures, addressable by canonical name and by
// the -isa short forms.
func TestMachineArchRegistry(t *testing.T) {
	for _, name := range []string{"sparc", "mips32e", "mips", "alpha64e", "alpha"} {
		a, ok := machine.ArchByName(name)
		if !ok {
			t.Errorf("ArchByName(%q) missing", name)
			continue
		}
		if a.NewDecoder == nil {
			t.Errorf("%s: no decoder constructor", name)
		}
	}
}
