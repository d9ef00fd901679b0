package alpha

import (
	"testing"

	"eel/internal/machine"
)

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
	if Desc().MachineName != "alpha64e" {
		t.Fatalf("name = %q", Desc().MachineName)
	}
	if Desc().SourceLines > 150 {
		t.Errorf("description is %d lines; the paper's Alpha was 138", Desc().SourceLines)
	}
}

func TestNoDelaySlots(t *testing.T) {
	// Alpha has no delayed branches: spawn must derive zero slots
	// for every control transfer.
	for _, def := range Desc().Insts {
		if def.Info.DelaySlots != 0 {
			t.Errorf("%s has %d delay slots; Alpha has none", def.Name, def.Info.DelaySlots)
		}
	}
}

func TestBranchClassification(t *testing.T) {
	dec := NewDecoder()
	beq := dec.Decode(enc(t, map[string]uint32{"opcode": 0b111001, "ra": 3, "bdisp": 8}))
	if beq.Category() != machine.CatBranch {
		t.Fatalf("beq = %s", beq.Category())
	}
	if !beq.Reads().Has(3) {
		t.Errorf("beq reads = %s (compares ra directly)", beq.Reads())
	}
	if tgt, ok := beq.StaticTarget(0x1000); !ok || tgt != 0x1000+4+32 {
		t.Errorf("beq target = %#x ok=%v", tgt, ok)
	}
}

func TestBrLinkConventions(t *testing.T) {
	dec := NewDecoder()
	// br $31, target: a plain jump (link into the zero register).
	plain := dec.Decode(enc(t, map[string]uint32{"opcode": 0b110000, "ra": 31, "bdisp": 4}))
	if plain.Category() != machine.CatJumpDirect {
		t.Errorf("br $31 = %s", plain.Category())
	}
	// bsr $26, target: a call.
	call := dec.Decode(enc(t, map[string]uint32{"opcode": 0b110100, "ra": 26, "bdisp": 4}))
	if call.Category() != machine.CatCallDirect {
		t.Errorf("bsr = %s", call.Category())
	}
	if !call.Writes().Has(26) {
		t.Errorf("bsr writes = %s", call.Writes())
	}
}

func TestJumpGroup(t *testing.T) {
	dec := NewDecoder()
	ret := dec.Decode(enc(t, map[string]uint32{"opcode": 0b011010, "jkind": 2, "rb": 26}))
	if ret.Category() != machine.CatReturn {
		t.Errorf("ret = %s", ret.Category())
	}
	jsr := dec.Decode(enc(t, map[string]uint32{"opcode": 0b011010, "jkind": 1, "ra": 26, "rb": 4}))
	if jsr.Category() != machine.CatCallIndirect {
		t.Errorf("jsr = %s", jsr.Category())
	}
	jmp := dec.Decode(enc(t, map[string]uint32{"opcode": 0b011010, "jkind": 0, "ra": 31, "rb": 4}))
	if jmp.Category() != machine.CatJumpIndirect {
		t.Errorf("jmp = %s", jmp.Category())
	}
}

func TestMemoryWidths(t *testing.T) {
	dec := NewDecoder()
	ldq := dec.Decode(enc(t, map[string]uint32{"opcode": 0b101001, "ra": 1, "rb": 2, "mdisp": 16}))
	if ldq.Category() != machine.CatLoad || ldq.MemWidth() != 8 {
		t.Errorf("ldq: %s width %d", ldq.Category(), ldq.MemWidth())
	}
	stl := dec.Decode(enc(t, map[string]uint32{"opcode": 0b101100, "ra": 1, "rb": 2}))
	if stl.Category() != machine.CatStore || stl.MemWidth() != 4 {
		t.Errorf("stl: %s width %d", stl.Category(), stl.MemWidth())
	}
	// lda is pure arithmetic despite its memory-format encoding.
	lda := dec.Decode(enc(t, map[string]uint32{"opcode": 0b001000, "ra": 1, "rb": 2, "mdisp": 8}))
	if lda.Category() != machine.CatCompute {
		t.Errorf("lda: %s", lda.Category())
	}
}

func TestZeroRegister(t *testing.T) {
	dec := NewDecoder()
	// addl $31, $31, $5: reads nothing.
	w := enc(t, map[string]uint32{"opcode": 0b010000, "ra": 31, "rb": 31, "rc": 5})
	inst := dec.Decode(w)
	if !inst.Reads().IsEmpty() || !inst.Writes().Has(5) {
		t.Errorf("reads=%s writes=%s", inst.Reads(), inst.Writes())
	}
}

func TestCallPal(t *testing.T) {
	dec := NewDecoder()
	if c := dec.Decode(enc(t, map[string]uint32{"opcode": 0})).Category(); c != machine.CatSystem {
		t.Errorf("call_pal = %s", c)
	}
}
