package mips

import (
	"testing"

	"eel/internal/machine"
)

// enc builds a MIPS word from fields.
func enc(t *testing.T, fields map[string]uint32) uint32 {
	t.Helper()
	var w uint32
	for name, v := range fields {
		f, ok := Desc().Field(name)
		if !ok {
			t.Fatalf("no field %q", name)
		}
		w = f.Insert(w, v)
	}
	return w
}

func TestDescriptionCompiles(t *testing.T) {
	if Desc().MachineName != "mips32e" {
		t.Fatalf("name = %q", Desc().MachineName)
	}
	if len(Desc().Insts) < 30 {
		t.Fatalf("only %d instructions", len(Desc().Insts))
	}
}

func TestAdduClassification(t *testing.T) {
	// addu $3, $1, $2
	w := enc(t, map[string]uint32{"op": 0, "funct": 0b100001, "rs": 1, "rt": 2, "rdf": 3})
	inst := NewDecoder().Decode(w)
	if inst.Name() != "addu" || inst.Category() != machine.CatCompute {
		t.Fatalf("%s %s", inst.Name(), inst.Category())
	}
	if !inst.Reads().Equal(machine.NewRegSet(1, 2)) || !inst.Writes().Equal(machine.NewRegSet(3)) {
		t.Errorf("reads=%s writes=%s", inst.Reads(), inst.Writes())
	}
}

func TestBranchWithoutConditionCodes(t *testing.T) {
	// beq $4, $5, +16 words — MIPS branches read the compared
	// registers directly (no PSR equivalent).
	w := enc(t, map[string]uint32{"op": 0b000100, "rs": 4, "rt": 5, "imm16": 16})
	inst := NewDecoder().Decode(w)
	if inst.Category() != machine.CatBranch {
		t.Fatalf("beq category = %s", inst.Category())
	}
	if !inst.Reads().Equal(machine.NewRegSet(4, 5)) {
		t.Errorf("beq reads = %s", inst.Reads())
	}
	if inst.DelaySlots() != 1 {
		t.Errorf("beq delay slots = %d", inst.DelaySlots())
	}
	if inst.AnnulBit() {
		t.Error("MIPS has no annul bit")
	}
	// target = pc + 4 + 16*4
	if tgt, ok := inst.StaticTarget(0x1000); !ok || tgt != 0x1000+4+64 {
		t.Errorf("target = %#x ok=%v", tgt, ok)
	}
}

func TestJalIsCall(t *testing.T) {
	w := enc(t, map[string]uint32{"op": 0b000011, "target26": 0x100})
	inst := NewDecoder().Decode(w)
	if inst.Category() != machine.CatCallDirect {
		t.Fatalf("jal category = %s (link via pc+8 must be recognized)", inst.Category())
	}
	if !inst.Writes().Has(31) {
		t.Errorf("jal writes = %s, want $31", inst.Writes())
	}
	if tgt, ok := inst.StaticTarget(0x10000000); !ok || tgt != 0x10000000&0xf0000000|0x400 {
		t.Errorf("jal target = %#x ok=%v", tgt, ok)
	}
}

func TestJrOverloads(t *testing.T) {
	ret := enc(t, map[string]uint32{"op": 0, "funct": 0b001000, "rs": 31})
	if c := NewDecoder().Decode(ret).Category(); c != machine.CatReturn {
		t.Errorf("jr $31 category = %s", c)
	}
	ij := enc(t, map[string]uint32{"op": 0, "funct": 0b001000, "rs": 8})
	if c := NewDecoder().Decode(ij).Category(); c != machine.CatJumpIndirect {
		t.Errorf("jr $8 category = %s", c)
	}
}

func TestLoadsStores(t *testing.T) {
	lw := enc(t, map[string]uint32{"op": 0b100011, "rs": 4, "rt": 2, "imm16": 8})
	inst := NewDecoder().Decode(lw)
	if inst.Category() != machine.CatLoad || inst.MemWidth() != 4 {
		t.Errorf("lw: %s width %d", inst.Category(), inst.MemWidth())
	}
	sb := enc(t, map[string]uint32{"op": 0b101000, "rs": 4, "rt": 2})
	i2 := NewDecoder().Decode(sb)
	if i2.Category() != machine.CatStore || i2.MemWidth() != 1 {
		t.Errorf("sb: %s width %d", i2.Category(), i2.MemWidth())
	}
	if !i2.Reads().Has(2) || !i2.Reads().Has(4) {
		t.Errorf("sb reads = %s", i2.Reads())
	}
}

func TestZeroRegister(t *testing.T) {
	// addu $5, $0, $0: reads nothing.
	w := enc(t, map[string]uint32{"op": 0, "funct": 0b100001, "rdf": 5})
	inst := NewDecoder().Decode(w)
	if !inst.Reads().IsEmpty() {
		t.Errorf("reads = %s", inst.Reads())
	}
	// MIPS nop (sll $0,$0,0) writes nothing.
	nop := NewDecoder().Decode(0)
	if !nop.Writes().IsEmpty() {
		t.Errorf("nop writes = %s", nop.Writes())
	}
}

func TestSyscall(t *testing.T) {
	w := enc(t, map[string]uint32{"op": 0, "funct": 0b001100})
	if c := NewDecoder().Decode(w).Category(); c != machine.CatSystem {
		t.Errorf("syscall category = %s", c)
	}
}

func TestConcision(t *testing.T) {
	// The paper: "a spawn description of the MIPS R2000 architecture
	// is 128 lines."  Ours should be in that ballpark.
	lines := Desc().SourceLines
	if lines < 40 || lines > 200 {
		t.Errorf("description is %d lines, expected a Fig-7-like size", lines)
	}
	t.Logf("mips description: %d non-comment non-blank lines", lines)
}
