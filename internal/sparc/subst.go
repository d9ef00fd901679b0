package sparc

import "eel/internal/machine"

// SubstReg rewrites integer-register operand fields of word that name
// the register from so they name to — the mechanism behind snippet
// register allocation (paper §3.5): snippet bodies are written with
// placeholder registers that EEL replaces with scavenged dead
// registers at each insertion point.
//
// Only fields that actually denote integer registers for the decoded
// instruction are touched: branch and call words (whose bits overlap
// rd/rs1 positions) and floating-point register operands pass through
// unchanged.
func SubstReg(word uint32, from, to machine.Reg) uint32 {
	return SubstRegs(word, map[machine.Reg]machine.Reg{from: to})
}

// SubstRegs rewrites every integer-register operand field of word in
// one simultaneous pass: each field is looked up once in assign, so
// an assignment may map one placeholder onto another placeholder's
// name without the second rewrite corrupting the first (sequential
// SubstReg calls would).
func SubstRegs(word uint32, assign map[machine.Reg]machine.Reg) uint32 {
	def := desc.DecodeRaw(word)
	if def == nil {
		return word
	}
	op := def.Fixed["op"]
	op3, hasOp3 := def.Fixed["op3"]
	op2 := def.Fixed["op2"]
	spec := memo.Spec(word)
	sub := func(w uint32, name string) uint32 {
		f, ok := desc.Field(name)
		if !ok {
			return w
		}
		cur := machine.Reg(f.Extract(w))
		if cur == 0 {
			return w // %g0 means constant zero, never a placeholder
		}
		if !spec.Reads.Has(cur) && !spec.Writes.Has(cur) {
			// The instruction ignores this field (rdy's rs1, for
			// example).
			return w
		}
		if to, ok := assign[cur]; ok && to.IsInt() {
			return f.Insert(w, uint32(to))
		}
		return w
	}
	switch {
	case op == 0 && op2 == 0b100: // sethi
		return sub(word, "rd")
	case op == 2 && hasOp3 && (op3 == 0b110100 || op3 == 0b110101):
		return word // floating-point operate
	case op == 2 || op == 3:
		w := word
		switch {
		case op == 3 && (op3 == 0b100000 || op3 == 0b100100):
			// ldf/stf: rd names a floating-point register
		case op == 2 && op3 == 0b111010:
			// ticc: the rd bit positions hold the trap condition, and
			// the registers the trap convention reads/writes (%g1,
			// %o0-%o3) are not named by any field
		default:
			w = sub(w, "rd")
		}
		w = sub(w, "rs1")
		if iflag, _ := spec.Fields.Get("iflag"); iflag == 0 {
			w = sub(w, "rs2")
		}
		return w
	}
	return word
}

// WritesPSR reports whether the instruction word clobbers the integer
// condition codes — tools use it to decide between a snippet's fast
// (cc-clobbering) and slow (cc-preserving) bodies, the Blizzard
// optimization of §5.
func WritesPSR(word uint32) bool {
	return memo.Spec(word).Writes.Has(machine.RegPSR)
}
