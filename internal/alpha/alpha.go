// Package alpha provides a third spawn machine description — a
// Digital-Alpha-like 64-bit RISC — completing the paper's §4 trio
// ("a spawn description ... of the Digital Alpha architecture is 138
// lines").  Alpha differs from SPARC and MIPS in ways that exercise
// the description compiler from yet another angle: 64-bit registers,
// *no* delay slots (branches take effect immediately, so spawn must
// derive DelaySlots()==0 from the single-step semantics), a
// zero register at the top of the file (R31), and
// displacement-encoded memory instructions.
package alpha

import (
	"fmt"

	"eel/internal/machine"
	"eel/internal/spawn"
)

// DescriptionSource is the spawn description for the Alpha-like
// machine.
const DescriptionSource = `
machine alpha64e

instruction{32} fields
  opcode 26:31, ra 21:25, rb 16:20, rc 0:4,
  func7 5:11, litflag 12:12, lit 13:20,
  bdisp 0:20, mdisp 0:15, jdisp 0:13, jkind 14:15

register integer{64} R[32]
register integer{64} pc
zero is R[31]

// ---- Encodings ----

pat call_pal is opcode=0
pat lda is opcode=0b001000
pat ldah is opcode=0b001001
pat [ ldl ldq ] is opcode=[0b101000 0b101001]
pat [ stl stq ] is opcode=[0b101100 0b101101]

pat [ addl subl ] is opcode=0b010000 && func7=[0b0000000 0b0001001]
pat [ and bis xor ] is opcode=0b010001 && func7=[0b0000000 0b0100000 0b1000000]
pat [ sll srl ] is opcode=0b010010 && func7=[0b0111001 0b0110100]
pat cmpeq is opcode=0b010000 && func7=0b0101101
pat cmplt is opcode=0b010000 && func7=0b1001101

pat jmpj is opcode=0b011010 && jkind=0
pat jsr is opcode=0b011010 && jkind=1
pat retj is opcode=0b011010 && jkind=2

pat br is opcode=0b110000
pat bsr is opcode=0b110100
pat [ beq bne blt ble bgt bge ] is opcode=[0b111001 0b111101 0b111010 0b111011 0b111111 0b111110]

// ---- Semantics ----
// No semicolons in control transfers: Alpha has no delay slots, so
// pc assignments are immediate-step and spawn derives DelaySlots()=0.

val opb is litflag = 1 ? lit : R[rb]
val btgt is pc + 4 + shl(sex(bdisp), 2)
val cond is \t.((t R[ra]) ? pc := btgt)

sem call_pal is trap(mdisp)
sem lda is R[ra] := R[rb] + sex(mdisp)
sem ldah is R[ra] := R[rb] + shl(sex(mdisp), 16)
sem ldl is R[ra] := M[R[rb] + sex(mdisp)]{4}
sem ldq is R[ra] := M[R[rb] + sex(mdisp)]{8}
sem stl is M[R[rb] + sex(mdisp)]{4} := R[ra]
sem stq is M[R[rb] + sex(mdisp)]{8} := R[ra]

sem addl is R[rc] := R[ra] + opb
sem subl is R[rc] := R[ra] - opb
sem and is R[rc] := R[ra] & opb
sem bis is R[rc] := R[ra] | opb
sem xor is R[rc] := R[ra] ^ opb
sem sll is R[rc] := R[ra] << (opb & 63)
sem srl is R[rc] := R[ra] >> (opb & 63)
sem cmpeq is R[rc] := R[ra] == opb ? 1 : 0
sem cmplt is R[rc] := R[ra] < opb ? 1 : 0

sem jmpj is pc := R[rb] & ~3
sem jsr is R[ra] := pc + 4, pc := R[rb] & ~3
sem retj is pc := R[rb] & ~3

sem br is R[ra] := pc + 4, pc := btgt
sem bsr is R[ra] := pc + 4, pc := btgt

sem beq is (R[ra] == 0) ? pc := btgt
sem bne is (R[ra] != 0) ? pc := btgt
sem blt is (R[ra] < 0) ? pc := btgt
sem ble is (R[ra] <= 0) ? pc := btgt
sem bgt is (R[ra] > 0) ? pc := btgt
sem bge is (R[ra] >= 0) ? pc := btgt
`

var desc = spawn.MustParseDesc(DescriptionSource)

// memo derives each word once for every decoder in the process.
var memo = spawn.NewMemo(desc, Glue)

func init() {
	machine.RegisterArch(machine.ArchInfo{
		Name:       "alpha64e",
		Aliases:    []string{"alpha"},
		NewDecoder: func() machine.Decoder { return NewDecoder() },
		Trap: machine.TrapModel{
			Code:     0x83,               // call_pal callsys
			NumReg:   0,                  // $v0
			Args:     [3]int{16, 17, 18}, // $a0..$a2
			Ret:      0,
			SysExit:  1,
			SysWrite: 4,
		},
		// The Alpha calling standard (Calling Standard for Alpha
		// Systems, section 2.1: integer registers): $a0..$a5 carry
		// arguments, $pv the callee's address and $gp its global
		// pointer, and $v0 returns the result; a call clobbers $v0,
		// $t0..$t11, $a0..$a5, $ra, $pv and $at; $s0..$s5 and $fp
		// belong to the caller.  The editor keeps $at and $t11 for
		// its translation stubs.
		ABI: machine.ABI{
			Zero: 31, SP: 30, FP: 15, RA: 26, Reserved: [2]machine.Reg{28, 25},
			CallUse: machine.NewRegSet(15, 16, 17, 18, 19, 20, 21, 26, 27, 29, 30),
			CallDef: machine.NewRegSet(0, 1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25,
				26, 27, 28),
			ExitLive: machine.NewRegSet(0, 9, 10, 11, 12, 13, 14, 15, 26, 29, 30),
			Nop:      0x47ff041f, // bis $31, $31, $31
		},
	})
}

// Desc returns the compiled Alpha description.
func Desc() *spawn.Desc { return desc }

// NewDecoder returns a decoder for the Alpha-like machine.
func NewDecoder() *spawn.TableDecoder {
	return spawn.NewDecoder(memo, RegName)
}

// Glue resolves Alpha's conventions: jsr links through ra (usually
// R26); ret through the same register is a return; br with ra=R31 is
// a plain branch, with a real ra it is "branch and link" (a call).
func Glue(def *spawn.InstDef, fields machine.FieldVals, spec machine.InstSpec) machine.InstSpec {
	switch def.Name {
	case "retj":
		spec.Cat = machine.CatReturn
	case "jsr":
		spec.Cat = machine.CatCallIndirect
	case "br":
		if ra, _ := fields.Get("ra"); ra != 31 {
			spec.Cat = machine.CatCallDirect
		}
	}
	return spec
}

// RegName renders registers in Alpha syntax.
func RegName(r machine.Reg) string {
	switch {
	case r < 32:
		return fmt.Sprintf("$%d", r)
	case r == machine.RegPC:
		return "$pc"
	}
	return fmt.Sprintf("$r%d", r)
}
