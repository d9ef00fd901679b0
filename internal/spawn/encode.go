package spawn

import (
	"fmt"
	"slices"

	"eel/internal/machine"
	"eel/internal/rtl"
)

// Class is how a definition's semantics read an operand field.
type Class uint8

const (
	// Unsigned fields are read as plain bit strings.
	Unsigned Class = iota
	// Signed fields are read through sex, sexb or sexh.
	Signed
	// Register fields index a register file (X[f], R[rd | 1]).
	Register
)

// Operand is one field a definition can carry, derived from its
// semantics when the description compiles (Desc.analyze).  A field the
// semantics read is classified by how they read it; a field they do
// not read, but whose bits the pattern leaves free, is carried and
// takes the class the first definition that reads it gives it (SPARC
// bn's disp22, which assemblers emit like any branch's).
type Operand struct {
	Field Field
	Class Class
	// File names the register file a Register operand indexes.
	File string
	// Read marks a field the semantics read rather than carry.
	Read bool
	// Guard, when non-nil, is the field test under which a Read field
	// is read: SPARC's rs2 only while iflag != 1.
	Guard *Guard

	base  machine.Reg // flat register of index 0 (Register)
	count int64       // the file's size (Register)
}

// Guard is the field test Field == Val (Eq) or Field != Val.
type Guard struct {
	Field Field
	Val   uint32
	Eq    bool
}

// Holds reports whether the guard is true of word; a nil guard always
// holds.
func (g *Guard) Holds(word uint32) bool {
	return g == nil || (g.Field.Extract(word) == g.Val) == g.Eq
}

// Displacement places a pc-relative definition's target at
// pc + Off + Scale·d, d the value of operand Op.  Spawn finds it by
// evaluating the target with that field at 0 and at 1.
type Displacement struct {
	Op    int
	Off   uint32
	Scale int64
}

// fit converts v, a value of o's class, to field bits; ok is false
// when the field cannot hold it (a register from another file or past
// the field included).
func (o *Operand) fit(v int64) (bits uint32, ok bool) {
	w := int64(o.Field.Width())
	switch o.Class {
	case Register:
		v -= int64(o.base)
		return uint32(v), v >= 0 && v < o.count && v < 1<<w
	case Signed:
		return uint32(v) & uint32(1<<w-1), v >= -1<<(w-1) && v < 1<<(w-1)
	}
	return uint32(v), v >= 0 && v < 1<<w
}

// Value returns o's value in word: a flat register, a sign-extended
// or a plain field value, by class.
func (o *Operand) Value(word uint32) int64 {
	v := int64(o.Field.Extract(word))
	switch o.Class {
	case Register:
		return int64(o.base) + v
	case Signed:
		shift := 64 - o.Field.Width()
		return v << shift >> shift
	}
	return v
}

// operand returns the index of def's operand for field, or -1.
func (def *InstDef) operand(field string) int {
	for i := range def.Info.Operands {
		if def.Info.Operands[i].Field.Name == field {
			return i
		}
	}
	return -1
}

// Operand returns def's operand for field, or nil.
func (def *InstDef) Operand(field string) *Operand {
	if i := def.operand(field); i >= 0 {
		return &def.Info.Operands[i]
	}
	return nil
}

// Reads reports whether def's semantics read field, in some word.
func (def *InstDef) Reads(field string) bool {
	i := def.operand(field)
	return i >= 0 && def.Info.Operands[i].Read
}

// Arg sets one operand of an encoded word: a Register operand takes a
// flat machine register (machine.FloatBase+n for a float register n),
// any other operand a value of its class.
type Arg struct {
	Field string
	Val   int64
}

// Set builds an Arg from any integer value.
func Set[T ~int | ~int32 | ~int64 | ~uint16 | ~uint32](field string, v T) Arg {
	return Arg{field, int64(v)}
}

// Encode builds the named instruction from its operands.  It rejects
// an unknown name, a field the definition cannot carry (one that
// overlaps the pattern's fixed bits), a value its field cannot hold
// by class, two operands that overlap, and operands that overlap a
// field the definition reads but the caller left unset.  It allocates
// nothing unless it fails.
func (d *Desc) Encode(name string, args ...Arg) (uint32, error) {
	def, ok := d.instByName[name]
	if !ok {
		return 0, fmt.Errorf("%s: unknown instruction %q", d.MachineName, name)
	}
	ops := def.Info.Operands
	w, used, given := def.Match, uint32(0), uint64(0)
	for _, a := range args {
		i := def.operand(a.Field)
		if i < 0 {
			return 0, fmt.Errorf("%s: %s carries no field %s", d.MachineName, name, a.Field)
		}
		o := &ops[i]
		v, ok := o.fit(a.Val)
		switch m := o.Field.Mask(); {
		case !ok:
			return 0, fmt.Errorf("%s: %s: %d does not fit field %s", d.MachineName, name, a.Val, a.Field)
		case used&m != 0:
			return 0, fmt.Errorf("%s: %s: field %s overlaps another operand", d.MachineName, name, a.Field)
		default:
			w, used, given = o.Field.Insert(w, v), used|m, given|1<<i
		}
	}
	for i := range ops {
		o := &ops[i]
		if o.Read && given&(1<<i) == 0 && used&o.Field.Mask() != 0 && o.Guard.Holds(w) {
			return 0, fmt.Errorf("%s: %s reads field %s, which its operands overlap", d.MachineName, name, o.Field.Name)
		}
	}
	return w, nil
}

// Retarget rewrites the pc-relative transfer word at pc to reach
// target.  It fails for a word whose definition has no displacement
// (Info.Disp) and for a target the displacement cannot reach.
func (d *Desc) Retarget(word, pc, target uint32) (uint32, error) {
	def := d.DecodeRaw(word)
	if def == nil || def.Info.Disp == nil {
		return 0, fmt.Errorf("%s: %08x is not a pc-relative transfer", d.MachineName, word)
	}
	disp := def.Info.Disp
	o := &def.Info.Operands[disp.Op]
	delta := int64(int32(target - pc - disp.Off))
	v, ok := o.fit(delta / disp.Scale)
	if !ok || delta%disp.Scale != 0 {
		return 0, fmt.Errorf("%s: %s at %#x cannot reach %#x", d.MachineName, def.Name, pc, target)
	}
	return o.Field.Insert(word, v), nil
}

// fieldUse is how one definition's semantics use one field: its class,
// its guard, and how many of its reads the guard covers.
type fieldUse struct {
	class        Class
	file         string
	guard        *Guard
	reads, under int
}

// fieldUses classifies every field def's semantics read that its
// pattern does not fix: a field inside a register file's index is a
// register of that file, one directly under sex/sexb/sexh is signed,
// one passed to a window operation is an integer register (save's
// rd), and any other is unsigned.  A field read only under a field
// test (iflag = 1 ? ... : R[rs2]) records the test as its guard.
func (d *Desc) fieldUses(def *InstDef) (map[string]*fieldUse, error) {
	uses := map[string]*fieldUse{}
	var err error
	note := func(n rtl.Node, class Class, file string) *fieldUse {
		id, _ := rtl.UnwrapSeq(n).(rtl.Ident)
		f, ok := d.fieldByName[id.Name]
		if _, fixed := def.Fixed[id.Name]; !ok || fixed {
			return nil
		}
		u := uses[id.Name]
		switch {
		case f.Mask()&def.Mask != 0:
			err = fmt.Errorf("spawn: %s reads field %s, which its pattern partly fixes", def.Name, id.Name)
		case u == nil:
			u = &fieldUse{class: class, file: file}
			uses[id.Name] = u
		case class == Register && u.class == Register && u.file != file:
			err = fmt.Errorf("spawn: %s indexes files %s and %s with field %s", def.Name, u.file, file, id.Name)
		case class > u.class:
			u.class, u.file = class, file
		}
		return u
	}
	rtl.Walk(def.Sem, func(n rtl.Node) {
		switch x := n.(type) {
		case rtl.Ident:
			if u := note(x, Unsigned, ""); u != nil {
				u.reads++
			}
		case rtl.Index:
			if base, _ := x.Base.(rtl.Ident); d.fileByName[base.Name] != nil && d.fileByName[base.Name].Count > 0 {
				rtl.Walk(x.Elem, func(m rtl.Node) { note(m, Register, base.Name) })
			}
		case rtl.Apply:
			fn, args := rtl.Spine(x)
			head, _ := fn.(rtl.Ident)
			for _, a := range args {
				switch {
				case head.Name == "sex" || head.Name == "sexb" || head.Name == "sexh":
					note(a, Signed, "")
				case isWindowOp(head.Name):
					note(a, Register, d.intFile())
				}
			}
		case rtl.Cond:
			test, ok := d.fieldTest(x.C)
			if !ok {
				return
			}
			neg := *test
			neg.Eq = !neg.Eq
			for _, arm := range [...]struct {
				n rtl.Node
				g *Guard
			}{{x.T, test}, {x.F, &neg}} {
				rtl.Walk(arm.n, func(m rtl.Node) {
					u := note(m, Unsigned, "")
					switch _, isID := m.(rtl.Ident); {
					case u == nil || !isID:
					case u.guard == nil || *u.guard == *arm.g:
						u.guard = arm.g
						u.under++
					case u.guard.Field != arm.g.Field || u.guard.Val != arm.g.Val:
						err = fmt.Errorf("spawn: %s reads field %s under two field tests", def.Name, m)
					default:
						// Under a test and its negation: read either
						// way, so this read is not counted as guarded.
					}
				})
			}
		}
	})
	for _, u := range uses {
		if u.under < u.reads {
			u.guard = nil
		}
	}
	return uses, err
}

// fieldTest recognizes a guard condition "f = N" or "f != N" on a field.
func (d *Desc) fieldTest(c rtl.Node) (*Guard, bool) {
	b, ok := rtl.UnwrapSeq(c).(rtl.Bin)
	if !ok || b.Op != "==" && b.Op != "!=" {
		return nil, false
	}
	id, _ := rtl.UnwrapSeq(b.L).(rtl.Ident)
	n, isNum := rtl.UnwrapSeq(b.R).(rtl.Num)
	f, isField := d.fieldByName[id.Name]
	if !isNum || !isField {
		return nil, false
	}
	return &Guard{Field: *f, Val: uint32(n.Val), Eq: b.Op == "=="}, true
}

// intFile names the first integer register file, the one window
// operations save and restore.
func (d *Desc) intFile() string {
	for _, rf := range d.Files {
		if rf.Typ == "integer" && rf.Count > 0 {
			return rf.Name
		}
	}
	return ""
}

// deriveOperands builds every definition's operand table and
// displacement from the field uses of all definitions: a carried
// field takes its class from the first definition that reads it.
func (d *Desc) deriveOperands() error {
	uses := make([]map[string]*fieldUse, len(d.Insts))
	first := map[string]*fieldUse{}
	for i, def := range d.Insts {
		var err error
		if uses[i], err = d.fieldUses(def); err != nil {
			return err
		}
		for name, u := range uses[i] {
			if first[name] == nil {
				first[name] = u
			}
		}
	}
	for i, def := range d.Insts {
		for _, f := range d.byName {
			if _, fixed := def.Fixed[f.Name]; fixed || f.Mask()&def.Mask != 0 {
				continue
			}
			u := uses[i][f.Name]
			o := Operand{Field: f, Read: u != nil}
			if o.Read {
				o.Guard = u.guard
			} else {
				u = first[f.Name]
			}
			if u != nil {
				o.Class, o.File = u.class, u.file
			}
			if rf := d.fileByName[o.File]; o.Class == Register {
				o.base, _ = d.MachineReg(o.File, 0)
				o.count = int64(rf.Count)
			}
			def.Info.Operands = append(def.Info.Operands, o)
		}
		def.Info.Disp = d.displacement(def)
	}
	return nil
}

// displacement finds the one read field that moves a pc-relative
// definition's target, by evaluating the target with every other
// non-fixed field zero and that field at 0 and at 1.  The evaluation
// reads no register, not even the hardwired zero, so that a guard
// comparing registers (MIPS bltz's R[rs] < 0) stays open.
func (d *Desc) displacement(def *InstDef) *Displacement {
	if !def.Info.PCRelative {
		return nil
	}
	const pc = 0x1000
	target := func(fields machine.FieldVals) (uint64, bool) {
		return d.walkTarget(def.Sem, rtl.NewExprEvaluator(&fieldMachine{InstSem: InstSem{Desc: d, Fields: fields}, pc: pc}))
	}
	zero := d.fixedVals(def, true)
	t0, ok := target(zero)
	if !ok {
		return nil
	}
	var disp *Displacement
	for i, o := range def.Info.Operands {
		if !o.Read {
			continue
		}
		one := machine.FieldVals{Names: zero.Names, Vals: slices.Clone(zero.Vals)}
		one.Vals[slices.Index(one.Names, o.Field.Name)] = 1
		t1, ok := target(one)
		if !ok || t1 == t0 {
			continue
		}
		if disp != nil {
			return nil // two fields move the target
		}
		disp = &Displacement{Op: i, Off: uint32(t0) - pc, Scale: int64(int32(t1 - t0))}
	}
	return disp
}

// CheckEncoding sweeps every readable operand of every definition of
// dec's description through Encode and back through dec.  Each field's
// extremes, sign included, must decode to the same definition with the
// value intact; a value outside its class, register 32 and a register
// of another file must be rejected; and for a displacement d, the
// decoded static target must be pc + Off + Scale·d and Retarget must
// rebuild the word from that target.  It returns one error per failure.
func CheckEncoding(dec *TableDecoder) []error {
	const pc = 0x40000000
	d := dec.Desc()
	var errs []error
	for _, def := range d.Insts {
		for i := range def.Info.Operands {
			o := &def.Info.Operands[i]
			if !o.Read {
				continue
			}
			// The other operands: the field test that makes o read, and
			// register 1 in every other unguarded register operand (with
			// the zero register, the evaluator would settle a branch
			// comparing registers as never taken, leaving no target).
			var others []Arg
			if g := o.Guard; g != nil {
				others = []Arg{{g.Field.Name, int64(g.Val)}}
				if !g.Eq {
					others[0].Val ^= 1
				}
			}
			for j, r := range def.Info.Operands {
				if j != i && r.Read && r.Class == Register && r.Guard == nil {
					others = append(others, Arg{r.Field.Name, int64(r.base) + 1})
				}
			}
			bad := func(format string, args ...any) {
				errs = append(errs, fmt.Errorf("%s %s %s: "+format, append([]any{d.MachineName, def.Name, o.Field.Name}, args...)...))
			}
			in, out := o.extremes(d)
			for k, v := range append(in, out...) {
				w, err := d.Encode(def.Name, append(slices.Clip(others), Arg{o.Field.Name, v})...)
				disp, inst := def.Info.Disp, dec.Decode(w)
				switch {
				case k >= len(in):
					if err == nil {
						bad("out-of-range %d encoded silently to %08x", v, w)
					}
				case err != nil:
					bad("%d rejected: %v", v, err)
				case inst.Name() != def.Name || o.Value(w) != v:
					bad("%d encoded to %08x, which decodes as %s with %d", v, w, inst.Name(), o.Value(w))
				case disp != nil && disp.Op == i:
					want := pc + disp.Off + uint32(disp.Scale*v)
					if got, ok := inst.StaticTarget(pc); !ok || got != want {
						bad("%d: target %#x, want %#x", v, got, want)
					}
					w0, _ := d.Encode(def.Name, others...)
					if rw, err := d.Retarget(w0, pc, want); err != nil || rw != w {
						bad("retargeting %08x to %#x gave %08x (%v), want %08x", w0, want, rw, err, w)
					}
				}
			}
		}
	}
	return errs
}

// extremes returns values of o's class at the ends of its field, which
// Encode must accept, and values just past them, which it must reject.
func (o *Operand) extremes(d *Desc) (in, out []int64) {
	w := int64(o.Field.Width())
	switch o.Class {
	case Register:
		top, base := min(o.count, 1<<w)-1, int64(o.base)
		in, out = []int64{base, base + 1, base + top}, []int64{base + 1<<w, base - 1}
		for _, rf := range d.Files {
			if r, ok := d.MachineReg(rf.Name, 0); ok && rf.Count > 0 && rf.Name != o.File {
				out = append(out, int64(r))
			}
		}
		return in, out
	case Signed:
		return []int64{-1 << (w - 1), -1, 0, 1, 1<<(w-1) - 1}, []int64{-1<<(w-1) - 1, 1 << (w - 1)}
	}
	return []int64{0, 1, 1<<w - 1}, []int64{-1, 1 << w}
}
