package mips

import (
	"fmt"

	"eel/internal/spawn"
)

// Encoding helpers name the fields of the description's instruction
// formats; spawn's Encode derives every operand's class and range from
// the description (imm16 is signed where the semantics sign-extend it
// and unsigned where they do not) and rejects what the instruction
// cannot hold.

// EncodeR encodes an op=0 R-type instruction: name rd, rs, rt (shift
// instructions read rt and shamt; jr/jalr read rs).
func EncodeR(name string, rd, rs, rt uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rdf", rd), spawn.Set("rs", rs), spawn.Set("rt", rt))
}

// EncodeShift encodes a constant shift: name rd, rt, shamt.
func EncodeShift(name string, rd, rt, shamt uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rdf", rd), spawn.Set("rt", rt), spawn.Set("shamt", shamt))
}

// EncodeI encodes an I-type instruction (addiu, slti, sltiu, loads,
// stores): name rt, rs, imm, with imm the value the semantics read.
func EncodeI(name string, rt, rs uint32, imm int32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rt", rt), spawn.Set("rs", rs), spawn.Set("imm16", imm))
}

// EncodeIU is EncodeI for the zero-extended immediates (andi, ori,
// xori, lui).
func EncodeIU(name string, rt, rs uint32, imm uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rt", rt), spawn.Set("rs", rs), spawn.Set("imm16", imm))
}

// EncodeBranch encodes a PC-relative branch comparing two registers
// with a displacement in instruction words from the delay slot
// (target = pc + 4 + 4*disp): name rs, rt, disp.  blez and bgtz also
// take it: the description leaves their rt free.
func EncodeBranch(name string, rs, rt uint32, dispWords int32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rs", rs), spawn.Set("rt", rt), spawn.Set("imm16", dispWords))
}

// EncodeBranchZ encodes a branch comparing one register with zero
// (blez, bgtz, bltz, bgez): name rs, disp.
func EncodeBranchZ(name string, rs uint32, dispWords int32) (uint32, error) {
	return desc.Encode(name, spawn.Set("rs", rs), spawn.Set("imm16", dispWords))
}

// EncodeJ encodes j/jal: the target26 field holds the word address
// within the current 256 MiB region (target = pc&0xf0000000 |
// target26<<2).
func EncodeJ(name string, targetWords uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("target26", targetWords))
}

// EncodeSyscall returns the syscall word.
func EncodeSyscall() (uint32, error) {
	return desc.Encode("syscall")
}

// Nop returns the canonical MIPS nop (sll $0, $0, 0).
func Nop() uint32 {
	w, _ := EncodeShift("sll", 0, 0, 0)
	return w
}

// JTargetFor converts an absolute byte address into the target26
// word index EncodeJ consumes, rejecting addresses outside the
// 256 MiB region the description's jtgt semantics splice it into.
func JTargetFor(pc, target uint32) (uint32, error) {
	if target&3 != 0 {
		return 0, fmt.Errorf("mips: jump target %#x is not word-aligned", target)
	}
	if pc&0xf0000000 != target&0xf0000000 {
		return 0, fmt.Errorf("mips: jump target %#x outside pc %#x's 256MiB region", target, pc)
	}
	return (target & 0x0fffffff) >> 2, nil
}
