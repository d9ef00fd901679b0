package rtl

import (
	"errors"
	"reflect"
	"testing"
)

// cloneTM copies a testMachine so the interpreter and the compiled
// program start from identical state.
func cloneTM(m *testMachine) *testMachine {
	n := newTestMachine()
	for k, v := range m.fields {
		n.fields[k] = v
	}
	for f, regs := range m.regs {
		n.regs[f] = map[int64]uint64{}
		for i, v := range regs {
			n.regs[f][i] = v
		}
	}
	for a, v := range m.mem {
		n.mem[a] = v
	}
	n.pc = m.pc
	return n
}

// testLayout places the test machine's files in the register array:
// R (with the Y and PSR aliases at 32 and 33) and F.
var testLayout = &RegLayout{Int: "R", IntCount: 35, Float: "F", FloatCount: 32, Zero: -1}

func (m *testMachine) Layout() *RegLayout { return testLayout }

// slots returns m's registers as a register array; the array holds
// 32-bit registers, so wider values truncate.
func (m *testMachine) slots() Regs {
	var r Regs
	for f, regs := range m.regs {
		for i, v := range regs {
			if s, ok := testLayout.Slot(f, i); ok {
				r[s] = uint32(v)
			}
		}
	}
	return r
}

// setSlots replaces m's registers with the contents of r.
func (m *testMachine) setSlots(r Regs) {
	m.regs = map[string]map[int64]uint64{"R": {}, "F": {}}
	for s, v := range r {
		switch {
		case v == 0:
		case s < FloatSlot:
			m.regs["R"][int64(s)] = uint64(v)
		default:
			m.regs["F"][int64(s-FloatSlot)] = uint64(v)
		}
	}
}

// runCompiled runs p over m's registers as a register array and
// stores the array back into m.
func runCompiled(p *Prog, m *testMachine) error {
	r := m.slots()
	var ctx Ctx
	ctx.Bind(m, &r)
	err := p.Run(&ctx)
	m.setSlots(r)
	return err
}

// sameTM compares the observable state of two test machines, with
// registers compared as the 32-bit register array holds them.
func sameTM(a, b *testMachine) bool {
	return a.slots() == b.slots() &&
		reflect.DeepEqual(a.mem, b.mem) &&
		a.npc == b.npc && a.hasNPC == b.hasNPC &&
		a.annul == b.annul &&
		reflect.DeepEqual(a.traps, b.traps)
}

// diffCompile runs src through Exec and through Compile+Run on clones
// of m and requires identical resulting state and error behaviour.
func diffCompile(t *testing.T, src string, m *testMachine) {
	t.Helper()
	n := parse(t, src)

	im := cloneTM(m)
	execErr := Exec(n, im)

	cm := cloneTM(m)
	prog, err := Compile(n, cm)
	if err != nil {
		t.Fatalf("Compile(%q): %v", src, err)
	}
	runErr := runCompiled(prog, cm)

	if (execErr == nil) != (runErr == nil) {
		t.Fatalf("%q: exec err %v, compiled err %v", src, execErr, runErr)
	}
	if execErr == nil && !sameTM(im, cm) {
		t.Errorf("%q diverged:\nexec:     regs=%v mem=%v npc=%v/%v annul=%v traps=%v\ncompiled: regs=%v mem=%v npc=%v/%v annul=%v traps=%v",
			src,
			im.regs, im.mem, im.npc, im.hasNPC, im.annul, im.traps,
			cm.regs, cm.mem, cm.npc, cm.hasNPC, cm.annul, cm.traps)
	}
}

// TestCompileMatchesExec is the compiler's own differential test: a
// battery of RTL fragments covering every statement and expression
// form must behave identically interpreted and compiled.
func TestCompileMatchesExec(t *testing.T) {
	m := newTestMachine()
	m.fields["rd"] = 3
	m.fields["rs1"] = 1
	m.fields["rs2"] = 2
	m.fields["iflag"] = 1
	m.fields["simm13"] = 0x1fff // -1 after sign extension
	m.fields["aflag"] = 0
	m.pc = 100
	m.regs["R"][1] = 10
	m.regs["R"][2] = 20
	m.regs["R"][33] = 1 << 22 // PSR alias: Z set

	cases := []string{
		// assignment, arithmetic, field constants
		"R[rd] := 7 + 4",
		"R[rd] := R[rs1] * R[rs2] - 3",
		"R[rd] := R[rs1] / 3 + R[rs2] % 7",
		// operand-mux folding: iflag picks the immediate arm
		"t := iflag = 1 ? sex(simm13) : R[rs2] ; R[rd] := R[rs1] + t",
		// parallel read-before-commit (swap)
		"R[1] := R[2], R[2] := R[1]",
		// sequential temps
		"t := 5 ; u := t * t ; R[rd] := u + 1",
		// delayed pc through a temp
		"t := pc + 8 ; pc := t",
		// memory: value and address expressions, widths
		"M[R[1] + 4]{4} := R[2] ; R[rd] := M[R[1] + 4]{4}",
		"M[64]{2} := 0x1234 ; R[5] := M[64]{2}",
		// condition guards, both arms, annul
		"R[1] = 10 ? R[6] := 1 : R[6] := 2",
		"R[1] = 11 ? R[6] := 1 : R[6] := 2",
		"aflag = 1 ? annul",
		// condition-code syms against the PSR alias
		"tgt := pc + 16 ; ('e PSR) ? pc := tgt : (aflag = 1 ? annul)",
		"tgt := pc + 16 ; ('ne PSR) ? pc := tgt : (aflag = 1 ? annul)",
		// short-circuit logicals
		"R[6] := R[1] = 10 && R[2] = 20",
		"R[6] := R[1] = 99 || R[2] = 20",
		// unary ops and shifts
		"R[6] := -R[1] + ~R[2] + !R[1]",
		"R[6] := shl(R[2], 3) + shr(R[2], 1) + sar(sex(simm13), 2)",
		// builtins: sign extension, condition codes, mul/div
		"R[6] := sexb(0xff) + sexh(0x8000)",
		"PSR := cc_add(R[1], R[2])",
		"PSR := cc_sub(R[1], R[2])",
		"PSR := cc_logic(R[1])",
		"R[6] := umul(R[1], R[2]) ; R[7] := smul(R[1], sex(simm13))",
		"R[6] := udiv(R[2], R[1]) ; R[7] := srem(sex(simm13), 7)",
		// trap is immediate
		"trap(5)",
		// nested seq joins the enclosing step
		"(R[6] := 1 ; R[7] := R[6] + 1) ; R[8] := R[7] + 1",
	}
	for _, src := range cases {
		diffCompile(t, src, m)
	}

	// A register file indexed by a run-time value does not compile
	// (no description does it); Exec, which runs such a word, still
	// resolves the index in range and reports it past the file.
	refused := []struct {
		src, err string
		r6       uint64
	}{
		{"R[R[1] - 4] := 99, R[6] := R[R[2] - 17]", "", 0}, // both write R[6]; the later commit wins
		{"R[R[2] + 100] := 1", "write of unknown register R[120]", 7},
		{"R[6] := R[R[2] + 100]", "read of unknown register R[120]", 7},
	}
	for _, c := range refused {
		n := parse(t, c.src)
		var ce *CompileError
		if _, err := Compile(n, cloneTM(m)); !errors.As(err, &ce) {
			t.Errorf("Compile(%q) = %v, want a CompileError", c.src, err)
		}
		im := cloneTM(m)
		im.regs["R"][6] = 7
		err := Exec(n, im)
		if (err == nil) != (c.err == "") || err != nil && err.Error() != c.err {
			t.Errorf("Exec(%q) = %v, want %q", c.src, err, c.err)
		}
		if im.regs["R"][6] != c.r6 {
			t.Errorf("Exec(%q): R[6] = %d, want %d", c.src, im.regs["R"][6], c.r6)
		}
	}
}

// TestCompileDivZeroParity checks that a runtime division by zero
// errors identically in both engines.
func TestCompileDivZeroParity(t *testing.T) {
	m := newTestMachine()
	m.regs["R"][1] = 5
	for _, src := range []string{
		"R[2] := R[1] / R[3]",
		"R[2] := R[1] % R[3]",
		"R[2] := udiv(R[1], R[3])",
		"R[2] := srem(R[1], R[3])",
	} {
		diffCompile(t, src, m)
	}
}

// TestCompileConstantFolding checks that field-specialized programs
// fold to the expected shape: a fully constant guard drops the dead
// arm, so the compiled program for the immediate form never touches
// the register file read it would otherwise need.
func TestCompileConstantFolding(t *testing.T) {
	m := newTestMachine()
	m.fields["iflag"] = 1
	m.fields["simm13"] = 42
	m.fields["rd"] = 3
	n := parse(t, "R[rd] := iflag = 1 ? sex(simm13) : R[rs2]")
	// rs2 is deliberately undefined: if the dead arm were compiled
	// eagerly as a dynamic read it would still work, but compiling
	// must not fail over the missing field.
	prog, err := Compile(n, m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := runCompiled(prog, m); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.regs["R"][3] != 42 {
		t.Errorf("R[3] = %d, want 42", m.regs["R"][3])
	}
}

// TestCompileErrUnknownIdent checks that compiling semantics that
// reference an unresolvable name fails at compile time, not run time.
func TestCompileErrUnknownIdent(t *testing.T) {
	m := newTestMachine()
	if _, err := Compile(parse(t, "R[3] := nosuchfield + 1"), m); err == nil {
		t.Error("Compile accepted an unresolvable identifier")
	}
}
