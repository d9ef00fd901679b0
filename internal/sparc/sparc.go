// Package sparc provides the SPARC V8 machine layer: the embedded
// spawn description (the Go analogue of the paper's Fig 7), the
// hand-written glue that resolves convention-level instruction
// overloads (Fig 6), assembly-syntax register names, and encoding
// helpers used by the assembler, snippets, and the program generator.
package sparc

import (
	"fmt"

	"eel/internal/machine"
	"eel/internal/spawn"
)

// DescriptionSource is the spawn machine description for SPARC V8.
// It is deliberately written in the style of the paper's Figure 7:
// field declarations, register files and aliases, encoding matrices
// ("pat"), and semantic bindings ("sem") built from parameterized
// semantic functions ("val").  Everything else in this package — and
// every machine-independent analysis above it — derives its SPARC
// knowledge from this text.
const DescriptionSource = `
machine sparc

// Instruction field definitions.
instruction{32} fields
  op 30:31, op2 22:24, op3 19:24, opf 5:13,
  rd 25:29, rs1 14:18, rs2 0:4, iflag 13:13,
  simm13 0:12, imm22 0:21, disp22 0:21,
  disp30 0:29, cond 25:28, aflag 29:29, asi 5:12

// Register files.  R[32]=Y, R[33]=PSR (icc), R[34]=FSR (fcc).
register integer{32} R[35]
alias integer{32} Y is R[32]
alias integer{32} PSR is R[33]
alias integer{32} FSR is R[34]
register float{32} F[32]
register integer{32} pc
zero is R[0]

// ---- Encodings (syntax) ----

pat sethi is op=0 && op2=0b100

pat [ bn be ble bl bleu bcs bneg bvs ba bne bg bge bgu bcc bpos bvc ]
  is op=0 && op2=0b010 && cond=[0..15]

pat [ fbn fbne fblg fbul fbl fbug fbg fbu fba fbe fbue fbge fbuge fble fbule fbo ]
  is op=0 && op2=0b110 && cond=[0..15]

pat call is op=1

pat [ add  and   or    xor   sub   andn   orn   xnor
      addx _     umul  smul  subx  _      udiv  sdiv
      addcc andcc orcc xorcc subcc andncc orncc xnorcc
      _    _     _     _     _     _      _     _ ]
  is op=2 && op3=[0b000000..0b011111]

pat [ sll srl sra ] is op=2 && op3=[0b100101 0b100110 0b100111]
pat rdy is op=2 && op3=0b101000
pat wry is op=2 && op3=0b110000
pat jmpl is op=2 && op3=0b111000
pat ta is op=2 && op3=0b111010 && cond=8
pat save is op=2 && op3=0b111100
pat restore is op=2 && op3=0b111101

pat [ ld ldub lduh ldd st stb sth std _ ldsb ldsh _ _ ldstub _ swap ]
  is op=3 && op3=[0b000000..0b001111]
pat [ ldf stf ] is op=3 && op3=[0b100000 0b100100]

pat [ fmovs fnegs fabss ] is op=2 && op3=0b110100 && opf=[0b000000001 0b000000101 0b000001001]
pat [ fadds fsubs fmuls fdivs ] is op=2 && op3=0b110100 && opf=[0b001000001 0b001000101 0b001001001 0b001001101]
pat fitos is op=2 && op3=0b110100 && opf=0b011000100
pat fstoi is op=2 && op3=0b110100 && opf=0b011010001
pat fcmps is op=2 && op3=0b110101 && opf=0b001010001

// ---- Semantics ----

// Register-or-immediate second operand and effective address.
val op2v is iflag = 1 ? sex(simm13) : R[rs2]
val ea is R[rs1] + op2v
val disp is shl(sex(disp22), 2)

// Conditional branches: compute the target now; the transfer
// overlaps the next instruction (delay slot); an untaken annulled
// branch suppresses the slot.
val branch is \r.\t.(tgt := pc + disp ; (t r) ? pc := tgt : (aflag = 1 ? annul))

sem [ bn be ble bl bleu bcs bneg bvs ba bne bg bge bgu bcc bpos bvc ]
  is branch PSR @ ['n 'e 'le 'l 'leu 'cs 'neg 'vs 'a 'ne 'g 'ge 'gu 'cc 'pos 'vc]
sem [ fbn fbne fblg fbul fbl fbug fbg fbu fba fbe fbue fbge fbuge fble fbule fbo ]
  is branch FSR @ ['fn 'fne 'flg 'ful 'fl 'fug 'fg 'fu 'fa 'fe 'fue 'fge 'fuge 'fle 'fule 'fo]

// Branch-always/never annul semantics differ from the conditional
// form (SPARC's a-bit on ba/fba annuls unconditionally), so they are
// rebound after the matrix.
sem ba is tgt := pc + disp ; pc := tgt, (aflag = 1 ? annul)
sem fba is tgt := pc + disp ; pc := tgt, (aflag = 1 ? annul)
sem bn is aflag = 1 ? annul
sem fbn is aflag = 1 ? annul

sem sethi is R[rd] := shl(imm22, 10)
sem call is t := pc + shl(sex(disp30), 2), R[15] := pc ; pc := t
sem jmpl is t := ea, R[rd] := pc ; pc := t

sem add is R[rd] := R[rs1] + op2v
sem sub is R[rd] := R[rs1] - op2v
sem and is R[rd] := R[rs1] & op2v
sem or is R[rd] := R[rs1] | op2v
sem xor is R[rd] := R[rs1] ^ op2v
sem andn is R[rd] := R[rs1] & ~op2v
sem orn is R[rd] := R[rs1] | ~op2v
sem xnor is R[rd] := ~(R[rs1] ^ op2v)
sem addx is R[rd] := R[rs1] + op2v + (shr(PSR, 20) & 1)
sem subx is R[rd] := R[rs1] - op2v - (shr(PSR, 20) & 1)
sem umul is R[rd] := umul(R[rs1], op2v)
sem smul is R[rd] := smul(R[rs1], op2v)
sem udiv is R[rd] := udiv(R[rs1], op2v)
sem sdiv is R[rd] := sdiv(R[rs1], op2v)

sem addcc is R[rd] := R[rs1] + op2v, PSR := cc_add(R[rs1], op2v)
sem subcc is R[rd] := R[rs1] - op2v, PSR := cc_sub(R[rs1], op2v)
sem andcc is R[rd] := R[rs1] & op2v, PSR := cc_logic(R[rs1] & op2v)
sem orcc is R[rd] := R[rs1] | op2v, PSR := cc_logic(R[rs1] | op2v)
sem xorcc is R[rd] := R[rs1] ^ op2v, PSR := cc_logic(R[rs1] ^ op2v)
sem andncc is R[rd] := R[rs1] & ~op2v, PSR := cc_logic(R[rs1] & ~op2v)
sem orncc is R[rd] := R[rs1] | ~op2v, PSR := cc_logic(R[rs1] | ~op2v)
sem xnorcc is R[rd] := ~(R[rs1] ^ op2v), PSR := cc_logic(~(R[rs1] ^ op2v))

sem sll is R[rd] := shl(R[rs1], op2v)
sem srl is R[rd] := shr(R[rs1], op2v)
sem sra is R[rd] := sar(R[rs1], op2v)
sem rdy is R[rd] := Y
sem wry is Y := R[rs1] ^ op2v
sem save is winsave(ea, rd)
sem restore is winrestore(ea, rd)
sem ta is trap(op2v)

sem ld is R[rd] := M[ea]{4}
sem ldub is R[rd] := M[ea]{1}
sem lduh is R[rd] := M[ea]{2}
sem ldsb is R[rd] := sexb(M[ea]{1})
sem ldsh is R[rd] := sexh(M[ea]{2})
sem ldd is R[rd] := M[ea]{4}, R[rd | 1] := M[ea + 4]{4}
sem st is M[ea]{4} := R[rd]
sem stb is M[ea]{1} := R[rd]
sem sth is M[ea]{2} := R[rd]
sem std is M[ea]{4} := R[rd], M[ea + 4]{4} := R[rd | 1]
sem ldstub is R[rd] := M[ea]{1}, M[ea]{1} := 255
sem swap is R[rd] := M[ea]{4}, M[ea]{4} := R[rd]
sem ldf is F[rd] := M[ea]{4}
sem stf is M[ea]{4} := F[rd]

sem fmovs is F[rd] := F[rs2]
sem fnegs is F[rd] := fneg(F[rs2])
sem fabss is F[rd] := fabs(F[rs2])
sem fadds is F[rd] := fadd(F[rs1], F[rs2])
sem fsubs is F[rd] := fsub(F[rs1], F[rs2])
sem fmuls is F[rd] := fmul(F[rs1], F[rs2])
sem fdivs is F[rd] := fdiv(F[rs1], F[rs2])
sem fitos is F[rd] := fitos(F[rs2])
sem fstoi is F[rd] := fstoi(F[rs2])
sem fcmps is FSR := fcmp(F[rs1], F[rs2])
`

// Well-known SPARC registers in the machine-independent space.
const (
	RegG0 machine.Reg = 0 // hardwired zero
	RegG1 machine.Reg = 1 // system-call number (our ABI)
	RegO0 machine.Reg = 8 // first argument / return value
	RegO1 machine.Reg = 9
	RegO2 machine.Reg = 10
	RegO3 machine.Reg = 11
	RegSP machine.Reg = 14 // %sp = %o6
	RegO7 machine.Reg = 15 // call return address
	RegL0 machine.Reg = 16
	RegI7 machine.Reg = 31 // saved return address (windowed)
	RegFP machine.Reg = 30 // %fp = %i6
)

var desc = spawn.MustParseDesc(DescriptionSource)

// memo derives each word once for every decoder in the process.
var memo = spawn.NewMemo(desc, Glue)

func init() {
	machine.RegisterArch(machine.ArchInfo{
		Name:       "sparc",
		NewDecoder: func() machine.Decoder { return NewDecoder() },
		Trap: machine.TrapModel{
			Code:     0, // "ta 0"
			NumReg:   int(RegG1),
			Args:     [3]int{int(RegO0), int(RegO1), int(RegO2)},
			Ret:      int(RegO0),
			SysExit:  1,
			SysWrite: 4,
		},
		// The SPARC V8 calling convention (SPARC Compliance
		// Definition 2.4, chapter 3): %o0..%o5 carry arguments and
		// %o0 the result; a call clobbers the globals, the outs,
		// every float, Y and both condition codes; the ins belong to
		// the caller.  The editor keeps %g6/%g7, which the ABI
		// reserves for the system, for its translation stubs.
		ABI: machine.ABI{
			Zero: RegG0, SP: RegSP, FP: RegFP, RA: RegO7, Reserved: [2]machine.Reg{6, 7},
			CallUse: machine.NewRegSet(8, 9, 10, 11, 12, 13, RegSP, RegO7, RegFP),
			CallDef: machine.NewRegSet(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
				machine.RegY, machine.RegPSR, machine.RegFSR).Union(machine.FloatRegs()),
			ExitLive: machine.NewRegSet(RegO0, RegSP, RegO7, 24, 25, 26, 27, 28, 29, 30, 31),
			Nop:      0x01000000, // sethi 0, %g0
		},
	})
}

// Desc returns the compiled SPARC description.
func Desc() *spawn.Desc { return desc }

// NewDecoder returns a fresh SPARC decoder (with its own decode count)
// over the package's shared memo, whose instructions, and their
// compiled forms, it returns.
func NewDecoder() *spawn.TableDecoder {
	return spawn.NewDecoder(memo, RegName)
}

// Glue refines spawn's derived classification with SPARC calling and
// trap conventions — the hand-written residue the paper's Figure 6
// shows: jmpl's three overloaded uses and the system-call idiom.
func Glue(def *spawn.InstDef, fields machine.FieldVals, spec machine.InstSpec) machine.InstSpec {
	switch def.Name {
	case "jmpl":
		a := spec.Addr
		switch {
		case a.Link == RegO7:
			spec.Cat = machine.CatCallIndirect
		case a.Link == RegG0 && !a.HasIndex && a.Disp == 8 && (a.Base == RegO7 || a.Base == RegI7):
			spec.Cat = machine.CatReturn
		case a.Link == RegG0 && a.Base == RegG0 && !a.HasIndex:
			// Jump to a literal address ("IS LITERAL && READ 1 == 0"
			// in Fig 6): spawn already proved the target static via
			// the hardwired zero.
			spec.Cat = machine.CatJumpDirect
		case a.Link == RegG0:
			spec.Cat = machine.CatJumpIndirect
		default:
			// Link into an unusual register: an indirect jump that
			// also records pc; treat as indirect jump.
			spec.Cat = machine.CatJumpIndirect
		}
	case "ta":
		// System calls read the call number and arguments under our
		// ABI (%g1 number, %o0-%o3 arguments) and write the result
		// register; liveness must see that.
		spec.Reads = spec.Reads.Add(RegG1).Add(RegO0).Add(RegO1).Add(RegO2).Add(RegO3)
		spec.Writes = spec.Writes.Add(RegO0)
	}
	return spec
}

// RegName renders a register in SPARC assembly syntax.
func RegName(r machine.Reg) string {
	switch {
	case r == RegSP:
		return "%sp"
	case r == RegFP:
		return "%fp"
	case r < 8:
		return fmt.Sprintf("%%g%d", r)
	case r < 16:
		return fmt.Sprintf("%%o%d", r-8)
	case r < 24:
		return fmt.Sprintf("%%l%d", r-16)
	case r < 32:
		return fmt.Sprintf("%%i%d", r-24)
	case r == machine.RegY:
		return "%y"
	case r == machine.RegPSR:
		return "%psr"
	case r == machine.RegFSR:
		return "%fsr"
	case r == machine.RegPC:
		return "%pc"
	case r.IsFloat():
		return fmt.Sprintf("%%f%d", r-machine.FloatBase)
	}
	return fmt.Sprintf("%%r%d", r)
}

// ParseReg parses a SPARC register name ("%g0", "%o7", "%l3", "%i2",
// "%sp", "%fp", "%f5").
func ParseReg(s string) (machine.Reg, error) {
	if len(s) < 2 || s[0] != '%' {
		return 0, fmt.Errorf("sparc: bad register %q", s)
	}
	switch s {
	case "%sp":
		return RegSP, nil
	case "%fp":
		return RegFP, nil
	case "%y":
		return machine.RegY, nil
	}
	var n int
	if len(s) == 3 && s[2] >= '0' && s[2] <= '9' {
		n = int(s[2] - '0') // the one-digit form, without Sscanf's allocations
	} else if _, err := fmt.Sscanf(s[2:], "%d", &n); err != nil || n < 0 {
		return 0, fmt.Errorf("sparc: bad register %q", s)
	}
	var base machine.Reg
	switch s[1] {
	case 'g':
		base = 0
	case 'o':
		base = 8
	case 'l':
		base = 16
	case 'i':
		base = 24
	case 'f':
		if n > 31 {
			return 0, fmt.Errorf("sparc: bad register %q", s)
		}
		return machine.FloatBase + machine.Reg(n), nil
	case 'r':
		if n >= 32 {
			return 0, fmt.Errorf("sparc: bad register %q", s)
		}
		return machine.Reg(n), nil
	default:
		return 0, fmt.Errorf("sparc: bad register %q", s)
	}
	if n > 7 {
		return 0, fmt.Errorf("sparc: bad register %q", s)
	}
	return base + machine.Reg(n), nil
}
