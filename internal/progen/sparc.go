package progen

// The SPARC emitter.  Both SPARC program policies — progen's
// personalities and internal/fuzz's feature toggles — write through
// it, so each idiom exists once: loops and annulled loops, if-then,
// gcc-style dispatch switches, memory and floating-point round trips,
// data blobs, calls, the continuation/window/leaf epilogues, and
// main's continuation-slot setup.  A policy supplies the random
// stream and the operand menus; the emitter records every dispatch
// table and data blob, so the program knows where its data lives.

import (
	"fmt"
	"math/rand"
	"strings"

	"eel/internal/asm"
)

// Menu holds the operand choices a policy gives the emitter.
type Menu struct {
	// Ops are the arithmetic operators.  Shifts take a ShiftImm
	// count, the others an Imm immediate.
	Ops []string
	// Conds are the if-then branch conditions; their compares take a
	// CmpImm immediate.
	Conds                 []string
	Imm, ShiftImm, CmpImm func(*rand.Rand) int
}

// Emitter writes a SPARC program's assembly text.  Convention:
// argument and result in %o0; %l0-%l7, %o1-%o5 and %g1-%g5 scratch.
type Emitter struct {
	image
	// Rng is the stream the idioms draw from.  A policy may switch it
	// between routines.
	Rng    *rand.Rand
	menu   Menu
	b      strings.Builder
	tables []string // the current routine's dispatch tables
}

// NewEmitter returns an emitter for a program of the given number of
// routines, naming local labels with prefix.
func NewEmitter(prefix string, menu Menu, routines int) *Emitter {
	return &Emitter{image: image{Routines: make([]Routine, routines), prefix: prefix}, menu: menu}
}

// L writes one line of assembly.
func (e *Emitter) L(format string, args ...any) {
	fmt.Fprintf(&e.b, format, args...)
	e.b.WriteByte('\n')
}

// Finish assembles the text at base and builds the program's image.
func (e *Emitter) Finish(base uint32, strip bool) (*Program, error) {
	src := e.b.String()
	prog, err := asm.Assemble(src, base)
	if err != nil {
		return nil, fmt.Errorf("assembling generated program: %w", err)
	}
	return e.build(src, base, prog.Bytes, prog.Labels, strip), nil
}

// fpSlot returns the data-segment address of routine i's
// function-pointer slot.
func fpSlot(i int) uint32 { return DataBase + 0x800 + uint32(i)*4 }

// Main emits the entry routine's head: the function-pointer slots of
// continuation routines are initialized (writable data, so the slicer
// must not constant-fold them), the accumulator seeded, and up to
// maxRoots roots of the DAG called for reps unrolled rounds (main's
// locals do not survive flat callees, so no register counter could).
// It returns the number of roots; Exit ends main.
func (e *Emitter) Main(maxRoots, reps int) int {
	e.L("main:")
	for i, r := range e.Routines {
		if r.TailTarget != 0 {
			e.L("\tset r%d, %%l0", r.TailTarget)
			e.L("\tset %d, %%l1", fpSlot(i))
			e.L("\tst %%l0, [%%l1]")
		}
	}
	e.L("\tmov %d, %%o0", 1+e.Rng.Intn(64))
	roots := 1 + e.Rng.Intn(min(maxRoots, len(e.Routines)))
	for rep := 0; rep < reps; rep++ {
		e.CallRoots(roots)
		e.L("\txor %%o0, %d, %%o0", rep+1)
	}
	return roots
}

// CallRoots calls the DAG roots Main chose.
func (e *Emitter) CallRoots(roots int) {
	for i := 0; i < roots; i++ {
		e.Call(i * (len(e.Routines) / roots))
	}
}

// Exit ends main with the exit trap.
func (e *Emitter) Exit() {
	e.L("\tmov 1, %%g1")
	e.L("\tta 0")
}

// Call emits a plain call to routine idx (or its second entry).
func (e *Emitter) Call(idx int) {
	if idx >= len(e.Routines) {
		return
	}
	entry := fmt.Sprintf("r%d", idx)
	if e.Routines[idx].Entry2 && e.Rng.Intn(2) == 0 {
		entry = fmt.Sprintf("r%d_entry2", idx)
	}
	e.L("\tcall %s", entry)
	e.L("\tnop")
}

// Enter emits routine idx's label and, for a window routine, its save.
func (e *Emitter) Enter(idx int) {
	e.L("r%d:", idx)
	if e.Routines[idx].Win {
		e.L("\tsave %%sp, -96, %%sp")
		e.L("\tmov %%i0, %%o0")
	}
}

// Body emits the rest of routine idx: around bodyOps operations, each
// written by op, with the second entry point a third of the way in;
// then the epilogue; then the routine's dispatch tables — data in the
// text segment, after the code (the paper's premise that text
// contains data).
func (e *Emitter) Body(idx, bodyOps int, op func()) {
	r := e.Routines[idx]
	ops := bodyOps/2 + e.Rng.Intn(bodyOps)
	if r.Entry2 && ops < 3 {
		ops = 3
	}
	for i := 0; i < ops; i++ {
		if r.Entry2 && i == max(1, ops/3) {
			// Callers call the second entry point directly, skipping
			// the code above.
			e.L("r%d_entry2:", idx)
		}
		op()
	}
	switch {
	case r.TailTarget != 0:
		// The SunPro idiom: pop the frame and jump to the callee
		// through a function pointer loaded from writable data — the
		// callee returns directly to this routine's caller via the
		// untouched %o7.
		e.L("\tset %d, %%l1", fpSlot(idx))
		e.L("\tld [%%l1], %%g5")
		e.L("\tadd %%sp, 0, %%sp")
		e.L("\tjmp %%g5")
		e.L("\tnop")
	case r.Win:
		e.L("\tret")
		e.L("\trestore %%o0, 0, %%o0")
	default:
		e.L("\tretl")
		e.L("\tnop")
	}
	for _, t := range e.tables {
		e.L("\t.align 4")
		e.L("%s", t)
	}
	e.tables = e.tables[:0]
}

// Arith emits one register-immediate operation from the menu.
func (e *Emitter) Arith() {
	dst := []string{"%o0", "%l0", "%l1", "%l2", "%o1", "%o2"}[e.Rng.Intn(6)]
	src := []string{"%o0", "%l0", "%l1", "%o1"}[e.Rng.Intn(4)]
	op := e.menu.Ops[e.Rng.Intn(len(e.menu.Ops))]
	imm := e.menu.Imm(e.Rng)
	if op == "sll" || op == "srl" || op == "sra" {
		imm = e.menu.ShiftImm(e.Rng)
	}
	e.L("\t%s %s, %d, %s", op, src, imm, dst)
}

// Loop emits a counted loop around one operation.
func (e *Emitter) Loop() {
	top := e.Fresh("loop")
	e.L("\tmov %d, %%l6", 2+e.Rng.Intn(6))
	e.L("%s:", top)
	e.Arith()
	e.L("\tsubcc %%l6, 1, %%l6")
	e.L("\tbne %s", top)
	e.L("\tnop")
}

// AnnulledLoop uses a bne,a with productive code in the delay slot —
// the Fig 3 normalization case.
func (e *Emitter) AnnulledLoop() {
	top := e.Fresh("aloop")
	e.L("\tmov %d, %%l7", 2+e.Rng.Intn(5))
	e.L("%s:", top)
	e.L("\tsubcc %%l7, 1, %%l7")
	e.L("\tbne,a %s", top)
	e.L("\tadd %%o0, 3, %%o0")
}

// IfThen emits a conditional branch around one operation.
func (e *Emitter) IfThen() {
	skip := e.Fresh("skip")
	cond := e.menu.Conds[e.Rng.Intn(len(e.menu.Conds))]
	e.L("\tcmp %%o0, %d", e.menu.CmpImm(e.Rng))
	e.L("\t%s %s", cond, skip)
	e.L("\tnop")
	e.Arith()
	e.L("%s:", skip)
}

// Switch emits a gcc-style switch: a bounds check, then a register
// indirect jump through a dispatch table that Body places after the
// routine's code.
func (e *Emitter) Switch() {
	e.switches++
	n := 3 + e.Rng.Intn(5)
	tab := e.Fresh("tab")
	def := e.Fresh("def")
	end := e.Fresh("end")
	arms := make([]string, n)
	for i := range arms {
		arms[i] = e.Fresh("case")
	}
	e.L("\tand %%o0, %d, %%l5", n) // bounded-ish index
	e.L("\tcmp %%l5, %d", n-1)
	e.L("\tbgu %s", def)
	e.L("\tsll %%l5, 2, %%l4")
	e.L("\tset %s, %%l3", tab)
	e.L("\tld [%%l3+%%l4], %%l3")
	e.L("\tjmp %%l3")
	e.L("\tnop")
	for i, a := range arms {
		e.L("%s:", a)
		e.L("\tadd %%o0, %d, %%o0", i+1)
		e.L("\tba %s", end)
		e.L("\tnop")
	}
	e.L("%s:", def)
	e.L("\txor %%o0, 5, %%o0")
	e.L("%s:", end)

	var t strings.Builder
	fmt.Fprintf(&t, "%s:", tab)
	for _, a := range arms {
		fmt.Fprintf(&t, "\n\t.word %s", a)
	}
	e.tables = append(e.tables, t.String())
	e.data = append(e.data, dataLabel{tab, n})
}

// MemOp stores the accumulator to routine idx's data slot and reloads
// it, in one of six forms: 0 word, 1 byte with signed and unsigned
// reloads, 2 half likewise, 3 a doubleword pair, 4 an atomic swap,
// 5 ldstub.
func (e *Emitter) MemOp(idx, form int) {
	e.L("\tset %d, %%l3", DataBase+uint32(idx%32)*8)
	switch form {
	case 0:
		e.L("\tst %%o0, [%%l3]")
		e.L("\tld [%%l3], %%l2")
	case 1:
		e.L("\tstb %%o0, [%%l3]")
		e.L("\tldub [%%l3], %%l2")
		e.L("\tldsb [%%l3], %%l1")
		e.L("\tadd %%l2, %%l1, %%l2")
	case 2:
		e.L("\tsth %%o0, [%%l3]")
		e.L("\tlduh [%%l3], %%l2")
		e.L("\tldsh [%%l3], %%l1")
		e.L("\txor %%l2, %%l1, %%l2")
	case 3:
		e.L("\tmov %%o0, %%l0")
		e.L("\txor %%o0, %d, %%l1", 1+e.Rng.Intn(255))
		e.L("\tstd %%l0, [%%l3]")
		e.L("\tldd [%%l3], %%l2")
	case 4:
		e.L("\tst %%o0, [%%l3]")
		e.L("\tmov %d, %%l2", 1+e.Rng.Intn(63))
		e.L("\tswap [%%l3], %%l2")
	default:
		e.L("\tst %%o0, [%%l3]")
		e.L("\tldstub [%%l3], %%l2")
	}
	e.L("\tadd %%o0, %%l2, %%o0")
	e.L("\tsrl %%o0, 1, %%o0")
}

// FPOp exercises the floating-point file: convert the accumulator's
// low byte, apply op (fadds, fsubs or fmuls) to it and itself, and
// convert back — deterministic, since the values are small integers.
func (e *Emitter) FPOp(idx int, op string) {
	e.L("\tset %d, %%l3", DataBase+0x400+uint32(idx%16)*4)
	e.L("\tand %%o0, 0xff, %%l2")
	e.L("\tst %%l2, [%%l3]")
	e.L("\tldf [%%l3], %%f0")
	e.L("\tfitos %%f0, %%f1")
	e.L("\t%s %%f1, %%f1, %%f2", op)
	e.L("\tfstoi %%f2, %%f3")
	e.L("\tstf %%f3, [%%l3]")
	e.L("\tld [%%l3], %%l2")
	e.L("\txor %%o0, %%l2, %%o0")
}

// DataBlob embeds n random data words in the text segment.
func (e *Emitter) DataBlob(n int) {
	e.L("\t.align 4")
	e.L("%s:", e.blob(n))
	for i := 0; i < n; i++ {
		e.L("\t.word %d", e.Rng.Uint32())
	}
}
