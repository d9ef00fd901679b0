package sparc

import (
	"runtime"
	"testing"
	"testing/quick"

	"eel/internal/machine"
	"eel/internal/spawn"
)

// memoInst builds w's instruction from the package memo without
// interning it.
func memoInst(w uint32) *machine.Inst { return machine.NewInst(memo.Spec(w)) }

func dis(t *testing.T, w uint32, pc uint32) string {
	t.Helper()
	return Disasm(memoInst(w), pc)
}

func TestDisasmForms(t *testing.T) {
	enc := func(w uint32, err error) uint32 {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	cases := []struct {
		word uint32
		pc   uint32
		want string
	}{
		{enc(EncodeOp3Imm("add", 3, 1, 5)), 0, "add %g1, 5, %g3"},
		{enc(EncodeOp3("sub", 8, 16, 17)), 0, "sub %l0, %l1, %o0"},
		{enc(EncodeOp3Imm("ld", 2, 1, 8)), 0, "ld [%g1+8], %g2"},
		{enc(EncodeOp3("st", 5, 1, 2)), 0, "st %g5, [%g1+%g2]"},
		{enc(EncodeBranch("bne", false, 4)), 0x1000, "bne 0x1010"},
		{enc(EncodeBranch("be", true, -4)), 0x1000, "be,a 0xff0"},
		{enc(EncodeCall(16)), 0x2000, "call 0x2040"},
		{enc(EncodeOp3Imm("jmpl", 0, RegO7, 8)), 0, "retl"},
		{enc(EncodeOp3Imm("jmpl", 0, RegI7, 8)), 0, "ret"},
		{enc(EncodeOp3Imm("jmpl", 0, RegL0, 0)), 0, "jmp [%l0]"},
		{enc(EncodeTa(0)), 0, "ta 0"},
		{Nop(), 0, "nop"},
		{enc(EncodeOp3("fadds", machine.FloatBase+2, machine.FloatBase, machine.FloatBase+1)), 0, "fadds %f0, %f1, %f2"},
		{enc(EncodeOp3Imm("save", RegSP, RegSP, -96)), 0, "save %sp, -96, %sp"},
		{0, 0, ".word 0x00000000"},
	}
	for _, c := range cases {
		if got := dis(t, c.word, c.pc); got != c.want {
			t.Errorf("Disasm(%08x) = %q, want %q", c.word, got, c.want)
		}
	}
}

func TestDisasmNeverPanicsAndNeverEmpty(t *testing.T) {
	f := func(w uint32, pc uint32) bool {
		s := Disasm(memoInst(w), pc&^3)
		return s != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstRegIdentityAndTargets(t *testing.T) {
	// from == to is the identity.
	w, _ := EncodeOp3("add", 3, 1, 2)
	if SubstReg(w, 1, 1) != w {
		t.Error("self-substitution changed the word")
	}
	// Branch displacement bits must never be touched even when they
	// numerically contain the register value.
	b, _ := EncodeBranch("bne", false, int32(5)) // disp22=5 ≈ rs2=5 bits
	if SubstReg(b, 5, 9) != b {
		t.Error("branch word rewritten")
	}
	c, _ := EncodeCall(12345)
	if SubstReg(c, 3, 4) != c {
		t.Error("call word rewritten")
	}
}

func TestSubstRegRewritesOperands(t *testing.T) {
	w, _ := EncodeOp3("add", 3, 1, 2)
	got := SubstReg(w, 1, 20)
	inst := memoInst(got)
	if !inst.Reads().Has(20) || inst.Reads().Has(1) {
		t.Errorf("reads = %s", inst.Reads())
	}
	// Immediate form: rs2 bits hold the immediate, not a register.
	wi, _ := EncodeOp3Imm("add", 3, 1, 2) // simm13 = 2
	gi := SubstReg(wi, 2, 20)
	simm, _ := memoInst(gi).Field("simm13")
	if simm != 2 {
		t.Errorf("immediate rewritten: %d", simm)
	}
}

func TestSubstRegFloatUntouched(t *testing.T) {
	w, _ := EncodeOp3("fadds", machine.FloatBase+1, machine.FloatBase+1, machine.FloatBase+1)
	if SubstReg(w, 1, 9) != w {
		t.Error("fp word rewritten")
	}
	ldf, _ := EncodeOp3Imm("ldf", machine.FloatBase+3, 3, 0)
	got := SubstReg(ldf, 3, 9)
	// rs1 (integer base) rewritten, rd (fp) kept.
	inst := memoInst(got)
	if !inst.Reads().Has(9) {
		t.Errorf("base not rewritten: %s", inst.Reads())
	}
	if !inst.Writes().Has(machine.FloatBase + 3) {
		t.Errorf("fp destination corrupted: %s", inst.Writes())
	}
}

func TestSubstRegsSimultaneous(t *testing.T) {
	// Swapping two registers through a cyclic assignment must not
	// cascade.
	w, _ := EncodeOp3("add", 16, 16, 17) // add %l0, %l1, %l0
	got := SubstRegs(w, map[machine.Reg]machine.Reg{16: 17, 17: 16})
	inst := memoInst(got)
	if !inst.Reads().Equal(machine.NewRegSet(16, 17)) {
		t.Errorf("reads = %s", inst.Reads())
	}
	if !inst.Writes().Has(17) || inst.Writes().Has(16) {
		t.Errorf("writes = %s", inst.Writes())
	}
}

func TestSubstRegTrapCondUntouched(t *testing.T) {
	// ta's rd bit positions hold the trap condition, and the syscall
	// convention's registers (%g1 in, %o0 out) are not named by any
	// field — substituting them must leave the word alone.  (0x91d025c1
	// is ta with cond=always; rewriting "rd" 8→1 turned it into an
	// undecodable word.)
	const ta = uint32(0x91d025c1)
	for _, r := range []machine.Reg{1, 8} {
		if got := SubstReg(ta, r, 20); got != ta {
			t.Errorf("SubstReg(ta, %d, 20) = %#x, want unchanged %#x", r, got, ta)
		}
	}
}

// TestSubstRegSemanticsPreserved: substituting a register keeps the
// opcode and category, and substituting one the instruction does not
// mention leaves decode-visible behaviour identical.  jmpl alone may
// change category: Glue makes it a call, return or jump by its
// registers.
func TestSubstRegSemanticsPreserved(t *testing.T) {
	f := func(w uint32, from8, to8 uint8) bool {
		from := machine.Reg(from8 % 32)
		to := machine.Reg(to8 % 32)
		before := memoInst(w)
		after := memoInst(SubstReg(w, from, to))
		if before.Name() != after.Name() {
			return false
		}
		if before.Category() != after.Category() && before.Name() != "jmpl" {
			return false
		}
		// If the original didn't touch `from`, nothing changes.
		if !before.Reads().Has(from) && !before.Writes().Has(from) {
			return after.Word() == before.Word()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestPackageHelpersRetainNothing feeds SubstRegs and WritesPSR twice
// as many distinct words as the memo has slots, then as many more: a
// long-running tool asks them about every snippet word it ever places,
// so the second batch must not grow the heap.  Only the bounded memo
// may hold what they derive.
func TestPackageHelpersRetainNothing(t *testing.T) {
	const batch = 2 * spawn.MemoSlots
	feed := func(first int) {
		for i := first; i < first+batch; i++ {
			w, err := EncodeSethi(1, uint32(i)<<10)
			if err != nil {
				t.Fatal(err)
			}
			SubstRegs(w, map[machine.Reg]machine.Reg{1: 20})
			WritesPSR(w)
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	feed(0)
	before := heap()
	feed(batch)
	if grew := int64(heap()) - int64(before); grew > 1<<20 {
		t.Errorf("%d more distinct words grew the heap by %d bytes", batch, grew)
	}
}

func TestWritesPSR(t *testing.T) {
	cc, _ := EncodeOp3("subcc", 0, 1, 2)
	plain, _ := EncodeOp3("sub", 3, 1, 2)
	if !WritesPSR(cc) || WritesPSR(plain) {
		t.Error("WritesPSR misclassifies")
	}
}
