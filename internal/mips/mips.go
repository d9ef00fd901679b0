// Package mips provides a second spawn machine description — a
// MIPS-I-like 32-bit RISC — demonstrating the paper's retargetability
// claim (§4: "a spawn description of the MIPS R2000 architecture is
// 128 lines").  Unlike SPARC, this machine has no condition codes
// (branches compare registers directly) and no annul bit, which
// exercises different corners of the description language; the same
// spawn compiler derives its decoder, classifications, register
// sets, and targets.
package mips

import (
	"fmt"

	"eel/internal/machine"
	"eel/internal/spawn"
)

// DescriptionSource is the spawn description for the MIPS-like
// machine.
const DescriptionSource = `
machine mips32e

instruction{32} fields
  op 26:31, rs 21:25, rt 16:20, rdf 11:15,
  shamt 6:10, funct 0:5, imm16 0:15, target26 0:25

register integer{32} R[34]
alias integer{32} HI is R[32]
alias integer{32} LO is R[33]
register integer{32} pc
zero is R[0]

// ---- Encodings ----

pat [ sll _ srl sra _ _ _ _ jr jalr _ _ syscall ]
  is op=0 && funct=[0b000000..0b001100]

pat [ mfhi _ mflo ] is op=0 && funct=[0b010000..0b010010]
pat [ mult multu ] is op=0 && funct=[0b011000 0b011001]

pat [ addu subu and or xor nor _ _ slt sltu ]
  is op=0 && funct=[0b100001 0b100011 0b100100 0b100101 0b100110 0b100111 0b101000 0b101001 0b101010 0b101011]

pat [ bltz bgez ] is op=0b000001 && rt=[0 1]
pat [ j jal beq bne blez bgtz ] is op=[0b000010 0b000011 0b000100 0b000101 0b000110 0b000111]
pat [ addiu slti sltiu andi ori xori lui ] is op=[0b001001..0b001111]
pat [ lb lh _ lw lbu lhu ] is op=[0b100000..0b100101]
pat [ sb sh _ sw ] is op=[0b101000..0b101011]

// ---- Semantics ----

val simm is sex(imm16)
val btgt is pc + 4 + shl(simm, 2)
val jtgt is (pc & 0xf0000000) | shl(target26, 2)

sem sll is R[rdf] := shl(R[rt], shamt)
sem srl is R[rdf] := shr(R[rt], shamt)
sem sra is R[rdf] := sar(R[rt], shamt)
sem jr is t := R[rs] ; pc := t
sem jalr is t := R[rs], R[rdf] := pc + 8 ; pc := t
sem syscall is trap(0)

sem mfhi is R[rdf] := HI
sem mflo is R[rdf] := LO
sem mult is p := sex(R[rs], 32) * sex(R[rt], 32), HI := p >> 32, LO := p
sem multu is p := R[rs] * R[rt], HI := p >> 32, LO := p

sem addu is R[rdf] := R[rs] + R[rt]
sem subu is R[rdf] := R[rs] - R[rt]
sem and is R[rdf] := R[rs] & R[rt]
sem or is R[rdf] := R[rs] | R[rt]
sem xor is R[rdf] := R[rs] ^ R[rt]
sem nor is R[rdf] := ~(R[rs] | R[rt])
sem slt is R[rdf] := sex(R[rs], 32) < sex(R[rt], 32)
sem sltu is R[rdf] := R[rs] < R[rt]

sem bltz is t := btgt ; (sex(R[rs], 32) < 0) ? pc := t
sem bgez is t := btgt ; (sex(R[rs], 32) >= 0) ? pc := t
sem j is t := jtgt ; pc := t
sem jal is t := jtgt, R[31] := pc + 8 ; pc := t
sem beq is t := btgt ; (R[rs] == R[rt]) ? pc := t
sem bne is t := btgt ; (R[rs] != R[rt]) ? pc := t
sem blez is t := btgt ; (sex(R[rs], 32) <= 0) ? pc := t
sem bgtz is t := btgt ; (sex(R[rs], 32) > 0) ? pc := t

sem addiu is R[rt] := R[rs] + simm
sem slti is R[rt] := sex(R[rs], 32) < simm
sem sltiu is R[rt] := R[rs] < (simm & 0xffffffff)
sem andi is R[rt] := R[rs] & imm16
sem ori is R[rt] := R[rs] | imm16
sem xori is R[rt] := R[rs] ^ imm16
sem lui is R[rt] := shl(imm16, 16)

sem lb is R[rt] := sexb(M[R[rs] + simm]{1})
sem lh is R[rt] := sexh(M[R[rs] + simm]{2})
sem lw is R[rt] := M[R[rs] + simm]{4}
sem lbu is R[rt] := M[R[rs] + simm]{1}
sem lhu is R[rt] := M[R[rs] + simm]{2}
sem sb is M[R[rs] + simm]{1} := R[rt]
sem sh is M[R[rs] + simm]{2} := R[rt]
sem sw is M[R[rs] + simm]{4} := R[rt]
`

var desc = spawn.MustParseDesc(DescriptionSource)

// memo derives each word once for every decoder in the process.
var memo = spawn.NewMemo(desc, Glue)

func init() {
	machine.RegisterArch(machine.ArchInfo{
		Name:       "mips32e",
		Aliases:    []string{"mips"},
		NewDecoder: func() machine.Decoder { return NewDecoder() },
		Trap: machine.TrapModel{
			Code:     0,               // "syscall"
			NumReg:   2,               // $v0
			Args:     [3]int{4, 5, 6}, // $a0..$a2
			Ret:      2,
			SysExit:  1,
			SysWrite: 4,
		},
		Lockstep: true,
	})
}

// Desc returns the compiled MIPS description.
func Desc() *spawn.Desc { return desc }

// NewDecoder returns a decoder for the MIPS-like machine.
func NewDecoder() *spawn.TableDecoder {
	return spawn.NewDecoder(memo, RegName)
}

// Glue resolves the machine's conventions: jr through the
// return-address register is a return.
func Glue(def *spawn.InstDef, fields machine.FieldVals, spec *machine.InstSpec) {
	switch def.Name {
	case "jr":
		if rs, _ := fields.Get("rs"); rs == 31 {
			spec.Cat = machine.CatReturn
		}
	case "jalr":
		spec.Cat = machine.CatCallIndirect
	}
}

// RegName renders registers in MIPS syntax.
func RegName(r machine.Reg) string {
	switch {
	case r < 32:
		return fmt.Sprintf("$%d", r)
	case r == 32:
		return "$hi"
	case r == 33:
		return "$lo"
	case r == machine.RegPC:
		return "$pc"
	}
	return fmt.Sprintf("$r%d", r)
}
