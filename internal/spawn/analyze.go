package spawn

import (
	"errors"
	"fmt"

	"eel/internal/machine"
	"eel/internal/rtl"
)

// Effects summarizes what one instruction (a definition specialized
// by concrete field values) does to machine state.  Spawn derives it
// by walking the instruction's semantic AST, resolving guards whose
// conditions depend only on instruction fields (e.g. SPARC's
// register-or-immediate iflag) so the reported register sets are
// exact per machine word (paper §4: spawn "finds registers that each
// instruction reads and writes").
type Effects struct {
	Reads  machine.RegSet
	Writes machine.RegSet

	ReadsMem   bool
	WritesMem  bool
	ReadBytes  int
	WriteBytes int

	// WritesPC is true for control transfers; CondPC marks the pc
	// assignment as guarded by a run-time condition; LatePC marks it
	// as occurring after the first sequential step (a delayed
	// transfer).
	WritesPC bool
	CondPC   bool
	LatePC   bool

	// Link is the register assigned the instruction's own address
	// (the return-address link of calls); HasLink reports whether
	// one exists.
	Link    machine.Reg
	HasLink bool

	// Trap marks a software trap; Annul marks a reachable annul of
	// the following delay slot; Barrier marks window operations
	// (save/restore) that are treated as touching every integer
	// register.
	Trap    bool
	Annul   bool
	Barrier bool

	// Faults marks an instruction whose execution can fail: a memory
	// access, a trap, or a division.
	Faults bool

	// Addr (when HasAddr) and Def are the word's operand forms
	// (machine.Inst's Addr and Def).
	Addr    machine.Addr
	HasAddr bool
	Def     machine.Def
}

// MemWidth returns the instruction's access width in bytes (paper
// Fig 6 {{WIDTH}}): the larger of bytes read and written.
func (e Effects) MemWidth() int {
	if e.ReadBytes > e.WriteBytes {
		return e.ReadBytes
	}
	return e.WriteBytes
}

// ClassInfo records the definition-level metadata derived during
// description compilation.
type ClassInfo struct {
	Cat        machine.Category
	DelaySlots int
	Effects    Effects
	// PCRelative marks a definition whose every pc assignment is
	// provably pc + K with K free of pc (pcRelative).  K may still
	// read registers; only for a word whose target the evaluator also
	// finds statically is K fixed by the word's fields, and only then
	// does the decoder fold K once per word instead of evaluating the
	// target at every query.
	PCRelative bool
	// Operands lists, in field-name order, every field the definition
	// can carry; Disp locates a pc-relative target's displacement
	// among them (nil when the definition has none).
	Operands []Operand
	Disp     *Displacement
}

// analyze validates and classifies every instruction definition.
func (d *Desc) analyze() error {
	for _, def := range d.Insts {
		if def.Sem == nil {
			return fmt.Errorf("spawn: instruction %s has no semantics", def.Name)
		}
		eff := d.EffectsFor(def, d.fixedVals(def, false))
		info := ClassInfo{Effects: eff}
		if eff.WritesPC && eff.LatePC {
			info.DelaySlots = 1
		}
		_, direct := d.StaticTarget(def, d.fixedVals(def, true), 0x1000)
		info.Cat = Categorize(eff, direct)
		info.PCRelative = d.pcRelative(def.Sem)
		def.Info = info
	}
	return d.deriveOperands()
}

// pcRelative reports whether sem assigns pc and every target walkTarget
// can find in it is pc + K for a K that does not depend on pc.  It
// holds when each pc assignment's value has pc exactly once, reached
// only through + and the left side of -; each temporary is assigned
// once, with a value of that shape or free of pc; and no guard reads
// pc.  Then the path walkTarget takes, and whether it finds a target,
// are the same at every pc, and modular addition makes the 32-bit
// target pc + K.  The proof is syntactic: no pc is sampled.
//
// The proof does not ask K to be fixed by the fields: a pc-free
// subterm may read a register (t := pc + R[rs1] passes).  That half is
// StaticTarget's: its evaluator reads fields and the hardwired zero
// register and nothing else, so where it finds a target at one pc, K
// is the same at every pc.  Folding needs both.
func (d *Desc) pcRelative(sem rtl.Node) bool {
	temps := map[string]int{} // temporary → pcCount of its value
	ok, assigns := true, 0
	rtl.Walk(sem, func(n rtl.Node) {
		switch x := n.(type) {
		case rtl.Cond:
			ok = ok && pcCount(x.C, temps) == 0
		case rtl.Assign:
			id, _ := rtl.UnwrapSeq(x.LHS).(rtl.Ident)
			_, again := temps[id.Name]
			switch c := pcCount(x.RHS, temps); {
			case id.Name == "pc":
				assigns++
				ok = ok && c == 1
			case id.Name != "" && d.fieldByName[id.Name] == nil && d.aliasByName[id.Name] == nil:
				ok = ok && !again && c >= 0
				temps[id.Name] = c
			}
		}
	})
	return ok && assigns > 0
}

// pcCount returns how many times pc enters n's value, through
// temporaries too, when every occurrence is reached through + or the
// left side of - alone (so the value is count*pc + K); otherwise -1.
func pcCount(n rtl.Node, temps map[string]int) int {
	switch x := rtl.UnwrapSeq(n).(type) {
	case rtl.Ident:
		if x.Name == "pc" {
			return 1
		}
		return temps[x.Name]
	case rtl.Bin:
		l, r := pcCount(x.L, temps), pcCount(x.R, temps)
		if l >= 0 && r >= 0 && (x.Op == "+" || x.Op == "-" && r == 0 || l+r == 0) {
			return l + r
		}
		return -1
	}
	c := 0
	rtl.Walk(n, func(m rtl.Node) {
		if id, ok := m.(rtl.Ident); ok && (id.Name == "pc" || temps[id.Name] != 0) {
			c = -1
		}
	})
	return c
}

// fixedVals returns the field values def's encoding pins down.  With
// full set it pads every other field with zero, giving a
// representative word's field values for definition-level
// classification; otherwise the other fields are left unknown.
func (d *Desc) fixedVals(def *InstDef, full bool) machine.FieldVals {
	var out machine.FieldVals
	for _, f := range d.byName {
		v, fixed := def.Fixed[f.Name]
		if fixed || full {
			out.Names = append(out.Names, f.Name)
			out.Vals = append(out.Vals, v)
		}
	}
	return out
}

// Categorize maps derived effects to a machine-independent category.
// The machine glue may refine the result (SPARC's jmpl overloads,
// paper Fig 6).
func Categorize(eff Effects, hasStaticTarget bool) machine.Category {
	switch {
	case eff.Trap:
		return machine.CatSystem
	case eff.WritesPC:
		if eff.CondPC {
			return machine.CatBranch
		}
		if eff.HasLink {
			if hasStaticTarget {
				return machine.CatCallDirect
			}
			return machine.CatCallIndirect
		}
		if hasStaticTarget {
			return machine.CatJumpDirect
		}
		return machine.CatJumpIndirect
	case eff.ReadsMem && eff.WritesMem:
		return machine.CatLoadStore
	case eff.ReadsMem:
		return machine.CatLoad
	case eff.WritesMem:
		return machine.CatStore
	default:
		return machine.CatCompute
	}
}

// MachineReg maps a description register reference to the flat
// machine-independent register space: the integer file starts at 0,
// the floating-point file at machine.FloatBase, and the scalar pc
// register at machine.RegPC.
func (d *Desc) MachineReg(file string, idx int64) (machine.Reg, bool) {
	rf, ok := d.fileByName[file]
	if !ok {
		return 0, false
	}
	if rf.Count == 0 { // scalar register, e.g. pc
		return machine.RegPC, true
	}
	if idx < 0 || idx >= int64(rf.Count) {
		return 0, false
	}
	if rf.Typ == "float" {
		return machine.FloatBase + machine.Reg(idx), true
	}
	return machine.Reg(idx), true
}

// isZeroReg reports whether (file, idx) is the hardwired zero.
func (d *Desc) isZeroReg(file string, idx int64) bool {
	return d.HasZero && file == d.ZeroFile && idx == d.ZeroIndex
}

// allIntRegs returns every integer register plus condition codes,
// the conservative footprint of window operations.
func (d *Desc) allIntRegs() machine.RegSet {
	var s machine.RegSet
	for _, rf := range d.Files {
		if rf.Typ != "integer" || rf.Count == 0 {
			continue
		}
		for i := 0; i < rf.Count; i++ {
			if d.isZeroReg(rf.Name, int64(i)) {
				continue
			}
			if r, ok := d.MachineReg(rf.Name, int64(i)); ok {
				s = s.Add(r)
			}
		}
	}
	return s
}

// fieldMachine is an rtl.Machine restricted to instruction fields
// (and optionally pc and the zero register): reads of any other
// machine state return rtl.ErrDynamic.  It is how spawn asks "is
// this value computable without running the program?".
type fieldMachine struct {
	InstSem
	pc     uint64
	zeroOK bool
}

func (m *fieldMachine) ReadReg(file string, idx int64) (uint64, error) {
	if m.zeroOK && m.Desc.isZeroReg(file, idx) {
		return 0, nil
	}
	return 0, rtl.ErrDynamic
}

func (m *fieldMachine) WriteReg(string, int64, uint64) error { return nil }

func (m *fieldMachine) ReadMem(uint64, int) (uint64, error) { return 0, rtl.ErrDynamic }

func (m *fieldMachine) WriteMem(uint64, int, uint64) error { return nil }

func (m *fieldMachine) PC() uint64 { return m.pc }

func (m *fieldMachine) SetPC(uint64, bool) {}
func (m *fieldMachine) Annul()             {}
func (m *fieldMachine) Trap(uint64) error  { return nil }

// StaticTarget computes the control-transfer target of def at pc
// given concrete field values, when the target is statically
// computable (direct branches/calls/jumps, and jumps through the
// hardwired zero register to a literal address).  ok is false when
// the target depends on run-time register contents.
func (d *Desc) StaticTarget(def *InstDef, fields machine.FieldVals, pc uint32) (uint32, bool) {
	fm := &fieldMachine{InstSem: InstSem{Desc: d, Fields: fields}, pc: uint64(pc), zeroOK: true}
	ev := rtl.NewExprEvaluator(fm)
	target, found := d.walkTarget(def.Sem, ev)
	if !found {
		return 0, false
	}
	return uint32(target), true
}

// walkTarget steps through a semantic AST, evaluating temporaries as
// it goes and descending both arms of run-time-conditional guards,
// looking for an evaluable assignment to pc.
func (d *Desc) walkTarget(n rtl.Node, ev *rtl.ExprEvaluator) (uint64, bool) {
	switch x := rtl.UnwrapSeq(n).(type) {
	case rtl.Seq:
		for _, step := range x.Steps {
			for _, op := range step {
				if t, ok := d.walkTarget(op, ev); ok {
					return t, true
				}
			}
		}
	case rtl.Assign:
		if id, ok := rtl.UnwrapSeq(x.LHS).(rtl.Ident); ok {
			if id.Name == "pc" {
				v, err := ev.Eval(x.RHS)
				if err != nil {
					return 0, false
				}
				return v, true
			}
			// A temporary: evaluate if possible so later steps can
			// use it.
			if _, isField := ev.Machine().Field(id.Name); !isField {
				if _, _, isAlias := ev.Machine().RegAlias(id.Name); !isAlias {
					if v, err := ev.Eval(x.RHS); err == nil {
						ev.SetTemp(id.Name, v)
					}
				}
			}
		}
	case rtl.Cond:
		// Resolve field-only guards; otherwise look in both arms.
		if c, err := ev.Eval(x.C); err == nil {
			if c != 0 {
				return d.walkTarget(x.T, ev)
			}
			if x.F != nil {
				return d.walkTarget(x.F, ev)
			}
			return 0, false
		}
		if t, ok := d.walkTarget(x.T, ev); ok {
			return t, true
		}
		if x.F != nil {
			return d.walkTarget(x.F, ev)
		}
	}
	return 0, false
}

// effWalker accumulates Effects over a semantic AST.
type effWalker struct {
	d   *Desc
	ev  *rtl.ExprEvaluator
	fm  *fieldMachine
	eff *Effects
	// temps maps each temporary to the form of its value.
	temps map[string]machine.Def
	step  int
	cond  bool // under a run-time-conditional guard
	root  bool // outermost Seq defines sequential steps

	// The operand forms: accessed and stored mark the first memory
	// access and the first memory write; regWrites counts register
	// writes other than the condition codes, and def holds the first
	// integer one's form.
	accessed, stored bool
	regWrites        int
	def              machine.Def
}

// EffectsFor derives the exact effects of definition def specialized
// by the given field values.
func (d *Desc) EffectsFor(def *InstDef, fields machine.FieldVals) Effects {
	fm := &fieldMachine{InstSem: InstSem{Def: def, Desc: d, Fields: fields}}
	w := &effWalker{
		d:     d,
		ev:    rtl.NewExprEvaluator(fm),
		fm:    fm,
		eff:   &Effects{},
		temps: map[string]machine.Def{},
		root:  true,
	}
	w.stmt(def.Sem)
	e := w.eff
	if w.regWrites == 1 && !e.WritesMem && !e.WritesPC && !e.Trap && !e.Annul && !e.Barrier {
		e.Def = w.def
	}
	if e.Barrier {
		all := d.allIntRegs()
		e.Reads = e.Reads.Union(all)
		e.Writes = e.Writes.Union(all)
	}
	return *e
}

func (w *effWalker) stmt(n rtl.Node) {
	switch x := rtl.UnwrapSeq(n).(type) {
	case rtl.Seq:
		if w.root {
			// The outermost Seq defines the sequential steps that
			// distinguish delayed (late) pc assignments.
			w.root = false
			for i, step := range x.Steps {
				w.step = i
				for _, op := range step {
					w.stmt(op)
				}
			}
			return
		}
		// Nested groups inside guard arms join the current step.
		for _, step := range x.Steps {
			for _, op := range step {
				w.stmt(op)
			}
		}
	case rtl.Assign:
		w.assign(x)
	case rtl.Cond:
		if c, err := w.ev.Eval(x.C); err == nil {
			// Field-resolvable guard: only the live arm has effects.
			if c != 0 {
				w.stmt(x.T)
			} else if x.F != nil {
				w.stmt(x.F)
			}
			return
		}
		w.expr(x.C)
		saved := w.cond
		w.cond = true
		w.stmt(x.T)
		if x.F != nil {
			w.stmt(x.F)
		}
		w.cond = saved
	case rtl.Ident:
		if x.Name == "annul" {
			w.eff.Annul = true
		}
	case rtl.Apply:
		fn, args := rtl.Spine(x)
		if id, ok := fn.(rtl.Ident); ok {
			switch {
			case id.Name == "trap":
				w.eff.Trap, w.eff.Faults = true, true
			case isWindowOp(id.Name):
				w.eff.Barrier = true
			}
		}
		for _, a := range args {
			w.expr(a)
		}
	}
}

func (w *effWalker) assign(x rtl.Assign) {
	v := w.expr(x.RHS)
	switch lhs := rtl.UnwrapSeq(x.LHS).(type) {
	case rtl.Ident:
		if lhs.Name == "pc" {
			w.eff.WritesPC = true
			if w.cond {
				w.eff.CondPC = true
			}
			if w.step > 0 {
				w.eff.LatePC = true
			}
			if !w.accessed && !w.cond {
				w.addr(v)
			}
			return
		}
		if a, ok := w.d.aliasByName[lhs.Name]; ok {
			w.writeReg(a.File, a.Index, v)
			return
		}
		if _, isField := w.fm.Fields.Get(lhs.Name); isField {
			return // malformed; field writes are rejected at execution
		}
		// Temporary: a constant is bound for later guard resolution.
		if w.cond {
			v = machine.Def{}
		}
		w.temps[lhs.Name] = v
		if v.Op == machine.DefConst {
			w.ev.SetTemp(lhs.Name, uint64(v.K))
		}
	case rtl.Index:
		base, ok := lhs.Base.(rtl.Ident)
		if !ok {
			return
		}
		if base.Name == "M" {
			w.eff.WritesMem, w.eff.Faults = true, true
			w.eff.WriteBytes += w.widthOf(lhs)
			if !w.stored && !w.cond && isReg(v) {
				w.eff.Addr.Data, w.eff.Addr.HasData = v.A, true
			}
			w.stored = true
			w.access(w.expr(lhs.Elem))
			return
		}
		if idx, err := w.ev.Eval(lhs.Elem); err == nil {
			w.writeReg(base.Name, int64(idx), v)
		} else {
			// Register index not field-computable: conservatively
			// touch the whole file.
			w.eff.Barrier = true
		}
	}
}

// writeReg records a write of v to register idx of file.  A write
// of pc + K (SPARC call's pc, MIPS jal's pc + 8) is a link.
func (w *effWalker) writeReg(file string, idx int64, v machine.Def) {
	r, ok := w.d.MachineReg(file, idx)
	if !ok {
		return
	}
	link := v.Op == machine.DefAdd && v.A == machine.RegPC && !v.HasB
	if link {
		w.eff.Addr.Link, w.eff.Addr.HasLink = r, true
	}
	if r != machine.RegPSR {
		if w.regWrites++; w.regWrites == 1 && r.IsInt() && !w.cond {
			w.def = v
			w.def.Dst = r
		}
	}
	if w.d.isZeroReg(file, idx) {
		return
	}
	w.eff.Writes = w.eff.Writes.Add(r)
	if link {
		w.eff.Link, w.eff.HasLink = r, true
	}
}

func (w *effWalker) widthOf(ix rtl.Index) int {
	if ix.Width == nil {
		return 4
	}
	if v, err := w.ev.Eval(ix.Width); err == nil {
		return int(v)
	}
	return 4
}

// expr records what evaluating n reads and returns the operand form
// of its value, with Dst unset: a constant when n reads only fields;
// a register R, pc included, as R + 0; A op B for +, -, | and shl,
// with A a register and B a register or a constant; a load from
// A + B.  Anything else has no form (DefNone).
func (w *effWalker) expr(n rtl.Node) machine.Def {
	var none machine.Def
	n = rtl.UnwrapSeq(n)
	switch x := n.(type) {
	case rtl.Num:
		return machine.Def{Op: machine.DefConst, K: x.Val}
	case rtl.Ident:
		if t, ok := w.temps[x.Name]; ok {
			return t
		}
		if x.Name == "pc" {
			return machine.Def{Op: machine.DefAdd, A: machine.RegPC}
		}
		if v, ok := w.fm.Fields.Get(x.Name); ok {
			return machine.Def{Op: machine.DefConst, K: int64(v)}
		}
		if a, ok := w.d.aliasByName[x.Name]; ok {
			return w.readReg(a.File, a.Index)
		}
	case rtl.Index:
		base, ok := x.Base.(rtl.Ident)
		if !ok {
			return none
		}
		if base.Name == "M" {
			w.eff.ReadsMem, w.eff.Faults = true, true
			width := w.widthOf(x)
			w.eff.ReadBytes += width
			a := w.expr(x.Elem)
			w.access(a)
			if !isAddr(a) {
				return none
			}
			a.Op, a.Width = machine.DefLoad, uint8(width)
			return a
		}
		if idx, err := w.ev.Eval(x.Elem); err == nil {
			return w.readReg(base.Name, int64(idx))
		}
		w.eff.Barrier = true
	case rtl.Bin:
		if x.Op == "/" || x.Op == "%" {
			w.eff.Faults = true
		}
		return w.combine(n, binDefOps[x.Op], w.expr(x.L), w.expr(x.R))
	case rtl.Un:
		if w.expr(x.X).Op == machine.DefConst {
			return w.fold(n)
		}
	case rtl.Cond:
		if c, err := w.ev.Eval(x.C); err == nil {
			if c != 0 {
				return w.expr(x.T)
			} else if x.F != nil {
				return w.expr(x.F)
			}
			return none
		}
		w.expr(x.C)
		saved := w.cond
		w.cond = true
		w.expr(x.T)
		if x.F != nil {
			w.expr(x.F)
		}
		w.cond = saved
	case rtl.Apply:
		fn, args := rtl.Spine(x)
		id, _ := fn.(rtl.Ident)
		switch {
		case isWindowOp(id.Name):
			w.eff.Barrier = true
		case id.Name == "udiv" || id.Name == "sdiv" || id.Name == "urem" || id.Name == "srem":
			w.eff.Faults = true
		case id.Name == "shl" && len(args) == 2:
			return w.combine(n, machine.DefShl, w.expr(args[0]), w.expr(args[1]))
		}
		konst := true
		for _, a := range args {
			konst = w.expr(a).Op == machine.DefConst && konst
		}
		if konst {
			return w.fold(n)
		}
	case rtl.Seq:
		for _, step := range x.Steps {
			for _, op := range step {
				w.expr(op)
			}
		}
	}
	return none
}

// access records the address of the word's first memory access.
func (w *effWalker) access(a machine.Def) {
	if !w.accessed && !w.cond {
		w.addr(a)
	}
	w.accessed = true
}

// addr makes t the word's address operand, when it is one.
func (w *effWalker) addr(t machine.Def) {
	if isAddr(t) {
		a := &w.eff.Addr
		a.Base, a.Index, a.HasIndex, a.Disp, w.eff.HasAddr = t.A, t.B, t.HasB, t.K, true
	}
}

// binDefOps names the binary operators a Def can carry.
var binDefOps = map[string]machine.DefOp{"+": machine.DefAdd, "-": machine.DefSub, "|": machine.DefOr}

// combine forms n = l op r: a constant when both sides are, else
// A op B with l the register A and r the register or constant B.
func (w *effWalker) combine(n rtl.Node, op machine.DefOp, l, r machine.Def) machine.Def {
	if l.Op == machine.DefConst && r.Op == machine.DefConst {
		return w.fold(n)
	}
	switch {
	case op == machine.DefNone || !isReg(l):
		return machine.Def{}
	case r.Op == machine.DefConst:
		return machine.Def{Op: op, A: l.A, K: r.K}
	case isReg(r):
		return machine.Def{Op: op, A: l.A, B: r.A, HasB: true}
	}
	return machine.Def{}
}

// fold evaluates n, whose operands are constants, to a constant.
func (w *effWalker) fold(n rtl.Node) machine.Def {
	v, err := w.ev.Eval(n)
	if err != nil {
		return machine.Def{}
	}
	return machine.Def{Op: machine.DefConst, K: int64(v)}
}

// isReg reports whether t is a bare register.
func isReg(t machine.Def) bool { return t.Op == machine.DefAdd && !t.HasB && t.K == 0 }

// isAddr reports whether t is a register plus a register or a
// constant, pc + K excluded.
func isAddr(t machine.Def) bool { return t.Op == machine.DefAdd && t.A != machine.RegPC }

// readReg records a read of register idx of file and returns the
// register's form, R + 0.
func (w *effWalker) readReg(file string, idx int64) machine.Def {
	r, ok := w.d.MachineReg(file, idx)
	if !ok {
		return machine.Def{}
	}
	if !w.d.isZeroReg(file, idx) {
		w.eff.Reads = w.eff.Reads.Add(r)
	}
	return machine.Def{Op: machine.DefAdd, A: r}
}

// isWindowOp names the register-window operations.  Their effects are
// a barrier over the integer file, and a field passed to one bare
// (save's rd) is an index into that file (fieldUses).
func isWindowOp(name string) bool { return name == "winsave" || name == "winrestore" }

// ErrNoSem reports execution of an undecodable word.
var ErrNoSem = errors.New("spawn: word has no instruction semantics")
