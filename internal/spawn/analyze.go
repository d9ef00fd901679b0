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
	return nil
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
	d      *Desc
	fields machine.FieldVals
	pc     uint64
	zeroOK bool
}

func (m *fieldMachine) Field(name string) (int64, bool) {
	v, ok := m.fields.Get(name)
	return int64(v), ok
}

func (m *fieldMachine) FieldWidth(name string) (int, bool) {
	f, ok := m.d.fieldByName[name]
	if !ok {
		return 0, false
	}
	return f.Width(), true
}

func (m *fieldMachine) RegAlias(name string) (string, int64, bool) {
	a, ok := m.d.aliasByName[name]
	if !ok {
		return "", 0, false
	}
	return a.File, a.Index, true
}

func (m *fieldMachine) IsRegFile(name string) bool {
	rf, ok := m.d.fileByName[name]
	return ok && rf.Count > 0
}

func (m *fieldMachine) ReadReg(file string, idx int64) (uint64, error) {
	if m.zeroOK && m.d.isZeroReg(file, idx) {
		return 0, nil
	}
	return 0, rtl.ErrDynamic
}

func (m *fieldMachine) WriteReg(string, int64, uint64) error { return nil }

func (m *fieldMachine) ReadMem(uint64, int) (uint64, error) { return 0, rtl.ErrDynamic }

func (m *fieldMachine) WriteMem(uint64, int, uint64) error { return nil }

func (m *fieldMachine) PC() uint64 {
	return m.pc
}

func (m *fieldMachine) SetPC(uint64, bool) {}
func (m *fieldMachine) Annul()             {}
func (m *fieldMachine) Trap(uint64) error  { return nil }

// StaticTarget computes the control-transfer target of def at pc
// given concrete field values, when the target is statically
// computable (direct branches/calls/jumps, and jumps through the
// hardwired zero register to a literal address).  ok is false when
// the target depends on run-time register contents.
func (d *Desc) StaticTarget(def *InstDef, fields machine.FieldVals, pc uint32) (uint32, bool) {
	fm := &fieldMachine{d: d, fields: fields, pc: uint64(pc), zeroOK: true}
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
	d     *Desc
	ev    *rtl.ExprEvaluator
	fm    *fieldMachine
	eff   *Effects
	temps map[string]bool
	step  int
	cond  bool // under a run-time-conditional guard
	root  bool // outermost Seq defines sequential steps
}

// EffectsFor derives the exact effects of definition def specialized
// by the given field values.
func (d *Desc) EffectsFor(def *InstDef, fields machine.FieldVals) Effects {
	fm := &fieldMachine{d: d, fields: fields, zeroOK: false}
	w := &effWalker{
		d:     d,
		ev:    rtl.NewExprEvaluator(fm),
		fm:    fm,
		eff:   &Effects{},
		temps: map[string]bool{},
		root:  true,
	}
	w.stmt(def.Sem)
	if w.eff.Barrier {
		all := d.allIntRegs()
		w.eff.Reads = w.eff.Reads.Union(all)
		w.eff.Writes = w.eff.Writes.Union(all)
	}
	return *w.eff
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
		w.exprReads(x.C)
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
		fn, args := applySpine(x)
		if id, ok := fn.(rtl.Ident); ok {
			switch id.Name {
			case "trap":
				w.eff.Trap = true
			case "winsave", "winrestore":
				w.eff.Barrier = true
			}
		}
		for _, a := range args {
			w.exprReads(a)
		}
	}
}

func (w *effWalker) assign(x rtl.Assign) {
	w.exprReads(x.RHS)
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
			return
		}
		if a, ok := w.d.aliasByName[lhs.Name]; ok {
			w.writeReg(a.File, a.Index, x.RHS)
			return
		}
		if _, isField := w.fm.fields.Get(lhs.Name); isField {
			return // malformed; field writes are rejected at execution
		}
		// Temporary: evaluate for later guard resolution.
		w.temps[lhs.Name] = true
		if v, err := w.ev.Eval(x.RHS); err == nil {
			w.ev.SetTemp(lhs.Name, v)
		}
	case rtl.Index:
		base, ok := lhs.Base.(rtl.Ident)
		if !ok {
			return
		}
		if base.Name == "M" {
			w.eff.WritesMem = true
			w.eff.WriteBytes += w.widthOf(lhs)
			w.exprReads(lhs.Elem)
			return
		}
		if idx, err := w.ev.Eval(lhs.Elem); err == nil {
			w.writeReg(base.Name, int64(idx), x.RHS)
		} else {
			// Register index not field-computable: conservatively
			// touch the whole file.
			w.eff.Barrier = true
		}
	}
}

func (w *effWalker) writeReg(file string, idx int64, rhs rtl.Node) {
	if w.d.isZeroReg(file, idx) {
		return
	}
	r, ok := w.d.MachineReg(file, idx)
	if !ok {
		return
	}
	w.eff.Writes = w.eff.Writes.Add(r)
	if isPCValue(rtl.UnwrapSeq(rhs)) {
		w.eff.Link = r
		w.eff.HasLink = true
	}
}

// isPCValue recognizes a return-address expression: pc itself (SPARC
// call/jmpl) or pc plus a constant (MIPS jal's pc+8).
func isPCValue(n rtl.Node) bool {
	if id, ok := n.(rtl.Ident); ok {
		return id.Name == "pc"
	}
	if b, ok := n.(rtl.Bin); ok && b.Op == "+" {
		l, r := rtl.UnwrapSeq(b.L), rtl.UnwrapSeq(b.R)
		if _, isNum := r.(rtl.Num); isNum {
			return isPCValue(l)
		}
		if _, isNum := l.(rtl.Num); isNum {
			return isPCValue(r)
		}
	}
	return false
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

func (w *effWalker) exprReads(n rtl.Node) {
	switch x := rtl.UnwrapSeq(n).(type) {
	case nil, rtl.Num, rtl.Sym:
	case rtl.Ident:
		if x.Name == "pc" || w.temps[x.Name] {
			return
		}
		if _, isField := w.fm.fields.Get(x.Name); isField {
			return
		}
		if a, ok := w.d.aliasByName[x.Name]; ok {
			w.readReg(a.File, a.Index)
		}
	case rtl.Index:
		base, ok := x.Base.(rtl.Ident)
		if !ok {
			return
		}
		if base.Name == "M" {
			w.eff.ReadsMem = true
			w.eff.ReadBytes += w.widthOf(x)
			w.exprReads(x.Elem)
			return
		}
		if idx, err := w.ev.Eval(x.Elem); err == nil {
			w.readReg(base.Name, int64(idx))
		} else {
			w.eff.Barrier = true
		}
	case rtl.Bin:
		w.exprReads(x.L)
		w.exprReads(x.R)
	case rtl.Un:
		w.exprReads(x.X)
	case rtl.Cond:
		if c, err := w.ev.Eval(x.C); err == nil {
			if c != 0 {
				w.exprReads(x.T)
			} else if x.F != nil {
				w.exprReads(x.F)
			}
			return
		}
		w.exprReads(x.C)
		w.exprReads(x.T)
		if x.F != nil {
			w.exprReads(x.F)
		}
	case rtl.Apply:
		fn, args := applySpine(x)
		if id, ok := fn.(rtl.Ident); ok && (id.Name == "winsave" || id.Name == "winrestore") {
			w.eff.Barrier = true
		}
		for _, a := range args {
			w.exprReads(a)
		}
	case rtl.Seq:
		for _, step := range x.Steps {
			for _, op := range step {
				w.exprReads(op)
			}
		}
	}
}

func (w *effWalker) readReg(file string, idx int64) {
	if w.d.isZeroReg(file, idx) {
		return
	}
	if r, ok := w.d.MachineReg(file, idx); ok {
		w.eff.Reads = w.eff.Reads.Add(r)
	}
}

// applySpine flattens nested applications into head + arguments.
func applySpine(n rtl.Node) (rtl.Node, []rtl.Node) {
	var args []rtl.Node
	for {
		a, ok := n.(rtl.Apply)
		if !ok {
			return n, args
		}
		args = append([]rtl.Node{a.Arg}, args...)
		n = a.Fn
	}
}

// ErrNoSem reports execution of an undecodable word.
var ErrNoSem = errors.New("spawn: word has no instruction semantics")
