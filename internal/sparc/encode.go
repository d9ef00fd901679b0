package sparc

import (
	"eel/internal/machine"
	"eel/internal/spawn"
)

// Encoding helpers name the fields of the description's common
// instruction forms; spawn's Encode derives every operand's class,
// range and register file from the description and rejects what the
// instruction cannot hold.

// EncodeOp3 encodes a three-operand (register form) instruction:
// name rs1, rs2, rd.  It covers arithmetic, jmpl, and memory
// instructions (for memory, rd is the data register and rs1+rs2 the
// address).
func EncodeOp3(name string, rd, rs1, rs2 machine.Reg) (uint32, error) {
	return desc.Encode(name, spawn.Set("rd", rd), spawn.Set("rs1", rs1), spawn.Set("rs2", rs2))
}

// EncodeOp3Imm encodes the immediate form: name rs1, simm13, rd.
func EncodeOp3Imm(name string, rd, rs1 machine.Reg, imm int32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rd", rd), spawn.Set("rs1", rs1), spawn.Set("iflag", 1), spawn.Set("simm13", imm))
}

// EncodeAddr encodes name with rd and the address operand a: rs1 is
// a's base, and rs2 its index or simm13 its displacement.
func EncodeAddr(name string, rd machine.Reg, a machine.Addr) (uint32, error) {
	if a.HasIndex {
		return EncodeOp3(name, rd, a.Base, a.Index)
	}
	return EncodeOp3Imm(name, rd, a.Base, int32(a.Disp))
}

// EncodeSethi encodes "sethi %hi(value), rd": the imm22 field holds
// value's upper 22 bits.
func EncodeSethi(rd machine.Reg, value uint32) (uint32, error) {
	return desc.Encode("sethi", spawn.Set("rd", rd), spawn.Set("imm22", Hi(value)))
}

// Nop returns the canonical SPARC nop (sethi 0, %g0).
func Nop() uint32 {
	w, _ := EncodeSethi(RegG0, 0)
	return w
}

// EncodeBranch encodes a conditional branch with a displacement in
// instruction words (target = pc + 4*dispWords).
func EncodeBranch(name string, annul bool, dispWords int32) (uint32, error) {
	a := 0
	if annul {
		a = 1
	}
	return desc.Encode(name, spawn.Set("aflag", a), spawn.Set("disp22", dispWords))
}

// EncodeCall encodes "call" with a word displacement.
func EncodeCall(dispWords int32) (uint32, error) {
	return desc.Encode("call", spawn.Set("disp30", dispWords))
}

// EncodeTa encodes "ta imm" (trap always).
func EncodeTa(imm int32) (uint32, error) {
	return desc.Encode("ta", spawn.Set("iflag", 1), spawn.Set("simm13", imm))
}

// Hi returns the sethi %hi part of v; Lo the %lo part.  hi<<10|lo
// reconstructs v.
func Hi(v uint32) uint32 { return v >> 10 }

// Lo returns the low 10 bits of v.
func Lo(v uint32) uint32 { return v & 0x3ff }
