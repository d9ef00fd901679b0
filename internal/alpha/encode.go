package alpha

import "eel/internal/spawn"

// Encoding helpers name the fields of the description's instruction
// formats; spawn's Encode derives every operand's class and range from
// the description and rejects what the instruction cannot hold.

// EncodeOp encodes the register form of an operate instruction:
// name ra, rb, rc.
func EncodeOp(name string, ra, rb, rc uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("ra", ra), spawn.Set("rb", rb), spawn.Set("rc", rc))
}

// EncodeOpLit encodes the literal form of an operate instruction:
// name ra, lit, rc with lit in [0, 255].
func EncodeOpLit(name string, ra uint32, lit uint32, rc uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("ra", ra), spawn.Set("litflag", 1), spawn.Set("lit", lit), spawn.Set("rc", rc))
}

// EncodeMem encodes a memory-format instruction (lda, ldah, ldl, ldq,
// stl, stq): name ra, disp(rb) with disp the sign-extended mdisp16.
func EncodeMem(name string, ra, rb uint32, disp int32) (uint32, error) {
	return desc.Encode(name, spawn.Set("ra", ra), spawn.Set("rb", rb), spawn.Set("mdisp", disp))
}

// EncodeBranch encodes a branch-format instruction (br, bsr, beq,
// bne, blt, ble, bgt, bge): name ra, disp with disp in instruction
// words from the next pc (target = pc + 4 + 4*disp), signed 21 bits.
func EncodeBranch(name string, ra uint32, dispWords int32) (uint32, error) {
	return desc.Encode(name, spawn.Set("ra", ra), spawn.Set("bdisp", dispWords))
}

// EncodeJump encodes a jump-format instruction (jmpj, jsr, retj):
// name ra, (rb).
func EncodeJump(name string, ra, rb uint32) (uint32, error) {
	return desc.Encode(name, spawn.Set("ra", ra), spawn.Set("rb", rb))
}

// EncodeCallPal encodes call_pal with the given function code.
func EncodeCallPal(code uint32) (uint32, error) {
	return desc.Encode("call_pal", spawn.Set("mdisp", code))
}
