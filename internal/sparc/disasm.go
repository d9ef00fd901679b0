package sparc

import (
	"fmt"
	"strings"

	"eel/internal/machine"
	"eel/internal/spawn"
)

// Disasm renders the instruction at pc in SPARC assembly syntax.
// Invalid words render as ".word 0x...".
func Disasm(inst *machine.Inst, pc uint32) string {
	if !inst.Valid() {
		return fmt.Sprintf(".word %#08x", inst.Word())
	}
	w := inst.Word()
	def := desc.DecodeRaw(w)
	// operand renders a field this word reads: a register by its file,
	// an immediate by its class.
	operand := func(field string) string {
		switch o := def.Operand(field); {
		case o == nil || !o.Read || !o.Guard.Holds(w):
			return ""
		case o.Class == spawn.Register:
			return RegName(machine.Reg(o.Value(w)))
		default:
			return fmt.Sprint(o.Value(w))
		}
	}
	addr := func() string {
		switch off := operand("simm13"); {
		case off == "":
			return "[" + operand("rs1") + "+" + operand("rs2") + "]"
		case off == "0":
			return "[" + operand("rs1") + "]"
		case off[0] == '-':
			return "[" + operand("rs1") + off + "]"
		default:
			return "[" + operand("rs1") + "+" + off + "]"
		}
	}
	annul := ""
	if inst.AnnulBit() {
		annul = ",a"
	}

	name := inst.Name()
	switch inst.Category() {
	case machine.CatBranch, machine.CatJumpDirect:
		if t, ok := inst.StaticTarget(pc); ok {
			if name == "jmpl" {
				return fmt.Sprintf("jmp %#x", t)
			}
			return fmt.Sprintf("%s%s %#x", name, annul, t)
		}
	case machine.CatCallDirect:
		if t, ok := inst.StaticTarget(pc); ok {
			return fmt.Sprintf("call %#x", t)
		}
	case machine.CatCallIndirect:
		return fmt.Sprintf("call %s", addr())
	case machine.CatReturn:
		if operand("rs1") == RegName(RegO7) {
			return "retl"
		}
		return "ret"
	case machine.CatJumpIndirect:
		return fmt.Sprintf("jmp %s", addr())
	case machine.CatLoad, machine.CatStore, machine.CatLoadStore:
		dataReg := operand("rd")
		if inst.Category() == machine.CatStore {
			return fmt.Sprintf("%s %s, %s", name, dataReg, addr())
		}
		return fmt.Sprintf("%s %s, %s", name, addr(), dataReg)
	case machine.CatSystem:
		return "ta " + operand("rs2") + operand("simm13")
	}

	switch name {
	case "sethi":
		if w == Nop() {
			return "nop"
		}
		imm, _ := inst.Field("imm22")
		return fmt.Sprintf("sethi %%hi(%#x), %s", imm<<10, operand("rd"))
	case "rdy":
		return "rd %y, " + operand("rd")
	case "wry":
		return "wr " + operand("rs1") + ", %y"
	}
	var ops []string
	for _, field := range []string{"rs1", "rs2", "simm13", "rd"} {
		if s := operand(field); s != "" {
			ops = append(ops, s)
		}
	}
	return strings.TrimSpace(name + annul + " " + strings.Join(ops, ", ")) // bn,a reads no operand
}
