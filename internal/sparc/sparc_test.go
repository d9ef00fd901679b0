package sparc

import (
	"testing"

	"eel/internal/machine"
)

func decode(t *testing.T, word uint32) *machine.Inst {
	t.Helper()
	return NewDecoder().Decode(word)
}

func enc3(t *testing.T, name string, rd, rs1, rs2 machine.Reg) uint32 {
	t.Helper()
	w, err := EncodeOp3(name, rd, rs1, rs2)
	if err != nil {
		t.Fatalf("EncodeOp3(%s): %v", name, err)
	}
	return w
}

func encImm(t *testing.T, name string, rd, rs1 machine.Reg, imm int32) uint32 {
	t.Helper()
	w, err := EncodeOp3Imm(name, rd, rs1, imm)
	if err != nil {
		t.Fatalf("EncodeOp3Imm(%s): %v", name, err)
	}
	return w
}

func TestDescriptionCompiles(t *testing.T) {
	d := Desc()
	if d.MachineName != "sparc" {
		t.Fatalf("machine name = %q", d.MachineName)
	}
	if len(d.Insts) < 70 {
		t.Fatalf("too few instructions derived: %d", len(d.Insts))
	}
}

func TestAddDecodes(t *testing.T) {
	w := enc3(t, "add", 3, 1, 2) // add %g1, %g2, %g3
	inst := decode(t, w)
	if inst.Name() != "add" || inst.Category() != machine.CatCompute {
		t.Fatalf("got %s cat=%s", inst.Name(), inst.Category())
	}
	if !inst.Reads().Equal(machine.NewRegSet(1, 2)) {
		t.Errorf("reads = %s, want {r1,r2}", inst.Reads())
	}
	if !inst.Writes().Equal(machine.NewRegSet(3)) {
		t.Errorf("writes = %s, want {r3}", inst.Writes())
	}
}

func TestAddImmediateReadsOnlyRS1(t *testing.T) {
	w := encImm(t, "add", 3, 1, 42)
	inst := decode(t, w)
	if !inst.Reads().Equal(machine.NewRegSet(1)) {
		t.Errorf("reads = %s, want {r1}", inst.Reads())
	}
}

func TestZeroRegisterSuppressed(t *testing.T) {
	// or %g0, 5, %g1 — reads nothing (g0 is hardwired zero).
	w := encImm(t, "or", 1, 0, 5)
	inst := decode(t, w)
	if !inst.Reads().IsEmpty() {
		t.Errorf("reads = %s, want empty", inst.Reads())
	}
	// Writes to %g0 are discarded: nop = sethi 0,%g0.
	nop := decode(t, Nop())
	if !nop.Writes().IsEmpty() {
		t.Errorf("nop writes = %s, want empty", nop.Writes())
	}
}

func TestCondBranch(t *testing.T) {
	w, err := EncodeBranch("bne", false, 12)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if inst.Category() != machine.CatBranch {
		t.Fatalf("bne category = %s", inst.Category())
	}
	if !inst.Conditional() || inst.DelaySlots() != 1 || inst.AnnulBit() {
		t.Errorf("cond=%v slots=%d annul=%v", inst.Conditional(), inst.DelaySlots(), inst.AnnulBit())
	}
	if tgt, ok := inst.StaticTarget(0x1000); !ok || tgt != 0x1000+48 {
		t.Errorf("target = %#x ok=%v, want %#x", tgt, ok, 0x1000+48)
	}
	if !inst.Reads().Has(machine.RegPSR) {
		t.Errorf("bne should read PSR, reads=%s", inst.Reads())
	}
}

func TestAnnulledBranch(t *testing.T) {
	w, err := EncodeBranch("be", true, -4)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if !inst.AnnulBit() {
		t.Error("annul bit not derived")
	}
	if tgt, ok := inst.StaticTarget(0x2000); !ok || tgt != 0x2000-16 {
		t.Errorf("target = %#x ok=%v", tgt, ok)
	}
}

func TestBranchAlways(t *testing.T) {
	w, err := EncodeBranch("ba", false, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if inst.Category() != machine.CatJumpDirect {
		t.Fatalf("ba category = %s", inst.Category())
	}
	if inst.Conditional() {
		t.Error("ba should be unconditional")
	}
	wa, err := EncodeBranch("ba", true, 2)
	if err != nil {
		t.Fatal(err)
	}
	ia := decode(t, wa)
	if !ia.IsAnnulledUncond() {
		t.Error("ba,a should annul its delay slot unconditionally")
	}
}

func TestCall(t *testing.T) {
	w, err := EncodeCall(100)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if inst.Category() != machine.CatCallDirect {
		t.Fatalf("call category = %s", inst.Category())
	}
	if !inst.Writes().Has(RegO7) {
		t.Errorf("call writes = %s, want o7 link", inst.Writes())
	}
	if tgt, ok := inst.StaticTarget(0x4000); !ok || tgt != 0x4000+400 {
		t.Errorf("call target = %#x ok=%v", tgt, ok)
	}
	if inst.DelaySlots() != 1 {
		t.Errorf("call delay slots = %d", inst.DelaySlots())
	}
}

func TestJmplOverloadResolution(t *testing.T) {
	// Figure 6's three overloaded uses of jmpl.
	cases := []struct {
		name string
		word func() (uint32, error)
		want machine.Category
	}{
		{"indirect call: jmpl %g1+0, %o7", func() (uint32, error) {
			return EncodeOp3Imm("jmpl", RegO7, RegG1, 0)
		}, machine.CatCallIndirect},
		{"retl: jmpl %o7+8, %g0", func() (uint32, error) {
			return EncodeOp3Imm("jmpl", RegG0, RegO7, 8)
		}, machine.CatReturn},
		{"ret: jmpl %i7+8, %g0", func() (uint32, error) {
			return EncodeOp3Imm("jmpl", RegG0, RegI7, 8)
		}, machine.CatReturn},
		{"literal jump: jmpl %g0+64, %g0", func() (uint32, error) {
			return EncodeOp3Imm("jmpl", RegG0, RegG0, 64)
		}, machine.CatJumpDirect},
		{"indirect jump: jmpl %l0+0, %g0", func() (uint32, error) {
			return EncodeOp3Imm("jmpl", RegG0, RegL0, 0)
		}, machine.CatJumpIndirect},
	}
	for _, c := range cases {
		w, err := c.word()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		inst := decode(t, w)
		if inst.Category() != c.want {
			t.Errorf("%s: category = %s, want %s", c.name, inst.Category(), c.want)
		}
	}
}

func TestLiteralJumpTarget(t *testing.T) {
	w, err := EncodeOp3Imm("jmpl", RegG0, RegG0, 64)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if tgt, ok := inst.StaticTarget(0x9999); !ok || tgt != 64 {
		t.Errorf("literal jump target = %#x ok=%v, want 64", tgt, ok)
	}
}

func TestLoadsAndStores(t *testing.T) {
	cases := []struct {
		name  string
		cat   machine.Category
		width int
	}{
		{"ld", machine.CatLoad, 4},
		{"ldub", machine.CatLoad, 1},
		{"ldsh", machine.CatLoad, 2},
		{"ldd", machine.CatLoad, 8},
		{"st", machine.CatStore, 4},
		{"stb", machine.CatStore, 1},
		{"std", machine.CatStore, 8},
		{"swap", machine.CatLoadStore, 4},
		{"ldstub", machine.CatLoadStore, 1},
	}
	for _, c := range cases {
		w := encImm(t, c.name, 2, 1, 16)
		inst := decode(t, w)
		if inst.Category() != c.cat {
			t.Errorf("%s: category = %s, want %s", c.name, inst.Category(), c.cat)
		}
		if inst.MemWidth() != c.width {
			t.Errorf("%s: width = %d, want %d", c.name, inst.MemWidth(), c.width)
		}
	}
}

func TestStoreReadsDataAndAddress(t *testing.T) {
	w := enc3(t, "st", 5, 1, 2) // st %g5, [%g1+%g2]
	inst := decode(t, w)
	if !inst.Reads().Equal(machine.NewRegSet(1, 2, 5)) {
		t.Errorf("st reads = %s", inst.Reads())
	}
	if !inst.Writes().IsEmpty() {
		t.Errorf("st writes = %s", inst.Writes())
	}
}

func TestCCInstructions(t *testing.T) {
	w := enc3(t, "subcc", 0, 1, 2) // cmp %g1, %g2
	inst := decode(t, w)
	if !inst.Writes().Has(machine.RegPSR) {
		t.Errorf("subcc writes = %s, want PSR", inst.Writes())
	}
	// subcc with rd=%g0 writes only PSR.
	if inst.Writes().Has(0) || inst.Writes().Len() != 1 {
		t.Errorf("subcc %%g0 writes = %s", inst.Writes())
	}
}

func TestSystemCall(t *testing.T) {
	w, err := EncodeTa(0)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if inst.Category() != machine.CatSystem {
		t.Fatalf("ta category = %s", inst.Category())
	}
	if !inst.Reads().Has(RegG1) || !inst.Reads().Has(RegO0) {
		t.Errorf("ta reads = %s, want syscall ABI registers", inst.Reads())
	}
}

func TestSaveRestoreBarrier(t *testing.T) {
	w := encImm(t, "save", RegSP, RegSP, -96)
	inst := decode(t, w)
	if inst.Reads().Len() < 30 || inst.Writes().Len() < 30 {
		t.Errorf("save should touch the whole integer file: reads=%d writes=%d",
			inst.Reads().Len(), inst.Writes().Len())
	}
}

func TestInvalidWordDecodes(t *testing.T) {
	// 0x00000000 is UNIMP (op=0 op2=000): undefined in the
	// description, so it must decode to the invalid category —
	// that's how EEL tells data from instructions (paper §4).
	inst := decode(t, 0)
	if inst.Valid() {
		t.Fatalf("word 0 decoded as %s", inst.Name())
	}
	inst2 := decode(t, 0xffffffff)
	if inst2.Valid() {
		t.Fatalf("word ~0 decoded as %s", inst2.Name())
	}
}

func TestFloatOps(t *testing.T) {
	w := enc3(t, "fadds", machine.FloatBase+2, machine.FloatBase, machine.FloatBase+1)
	inst := decode(t, w)
	if inst.Category() != machine.CatCompute {
		t.Fatalf("fadds category = %s", inst.Category())
	}
	if !inst.Reads().Has(machine.FloatBase) || !inst.Reads().Has(machine.FloatBase+1) {
		t.Errorf("fadds reads = %s", inst.Reads())
	}
	if !inst.Writes().Has(machine.FloatBase + 2) {
		t.Errorf("fadds writes = %s", inst.Writes())
	}
	wc := enc3(t, "fcmps", 0, machine.FloatBase, machine.FloatBase+1)
	ic := decode(t, wc)
	if !ic.Writes().Has(machine.RegFSR) {
		t.Errorf("fcmps writes = %s, want FSR", ic.Writes())
	}
}

func TestFloatBranchReadsFSR(t *testing.T) {
	w, err := EncodeBranch("fbl", false, 4)
	if err != nil {
		t.Fatal(err)
	}
	inst := decode(t, w)
	if inst.Category() != machine.CatBranch {
		t.Fatalf("fbl category = %s", inst.Category())
	}
	if !inst.Reads().Has(machine.RegFSR) {
		t.Errorf("fbl reads = %s, want FSR", inst.Reads())
	}
}

func TestInterning(t *testing.T) {
	dec := NewDecoder()
	w := enc3(t, "add", 3, 1, 2)
	a := dec.Decode(w)
	b := dec.Decode(w)
	if a != b {
		t.Error("same word should return the same *Inst")
	}
	decodes, unique, _ := dec.SharingStats()
	if decodes != 2 || unique != 1 {
		t.Errorf("stats = %d/%d, want 2/1", decodes, unique)
	}
}

func TestRegNameRoundTrip(t *testing.T) {
	for r := machine.Reg(0); r < 32; r++ {
		got, err := ParseReg(RegName(r))
		if err != nil || got != r {
			t.Errorf("round trip r%d: got %v err %v", r, got, err)
		}
	}
	if r, err := ParseReg("%sp"); err != nil || r != RegSP {
		t.Errorf("%%sp = %v, %v", r, err)
	}
	if _, err := ParseReg("%q3"); err == nil {
		t.Error("bad register accepted")
	}
}

func TestSethiPatching(t *testing.T) {
	w, err := EncodeSethi(RegG1, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint32(0x12345678)
	w = SetSethiHi(w, addr)
	inst := decode(t, w)
	imm, _ := inst.Field("imm22")
	if imm != addr>>10 {
		t.Errorf("imm22 = %#x, want %#x", imm, addr>>10)
	}
	or, err := EncodeOp3Imm("or", RegG1, RegG1, 0)
	if err != nil {
		t.Fatal(err)
	}
	or = SetSimm13Lo(or, addr)
	io := decode(t, or)
	lo, _ := io.Field("simm13")
	if lo != addr&0x3ff {
		t.Errorf("simm13 = %#x, want %#x", lo, addr&0x3ff)
	}
	if Hi(addr)<<10|Lo(addr) != addr {
		t.Error("Hi/Lo do not reconstruct the address")
	}
}

func TestBranchDisplacementRange(t *testing.T) {
	if _, err := EncodeBranch("bne", false, 1<<21); err == nil {
		t.Error("overflowing displacement accepted")
	}
	if _, err := EncodeBranch("bne", false, -(1<<21)-1); err == nil {
		t.Error("underflowing displacement accepted")
	}
}

func TestPatternsDisjoint(t *testing.T) {
	// Every instruction's match word must decode back to itself:
	// patterns may not shadow one another.
	for _, def := range Desc().Insts {
		got := Desc().DecodeRaw(def.Match)
		if got == nil || got.Name != def.Name {
			name := "<nil>"
			if got != nil {
				name = got.Name
			}
			t.Errorf("match word of %s decodes to %s", def.Name, name)
		}
	}
}
