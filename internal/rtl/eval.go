package rtl

import (
	"errors"
	"fmt"
	"slices"
)

// Machine is the environment an RTL semantic expression executes
// against.  The emulator supplies a live machine; spawn's static
// analyses supply restricted environments whose register and memory
// reads fail with ErrDynamic, which is how "is this target computable
// statically?" is asked.
type Machine interface {
	// Field returns the decoded value of an instruction field.
	Field(name string) (int64, bool)
	// FieldWidth returns a field's declared bit width.
	FieldWidth(name string) (int, bool)
	// RegAlias resolves a named register ("PSR", "Y") to a register
	// file and index.
	RegAlias(name string) (file string, idx int64, ok bool)
	// IsRegFile reports whether name denotes a register file ("R").
	IsRegFile(name string) bool
	// ReadReg reads a register.
	ReadReg(file string, idx int64) (uint64, error)
	// WriteReg writes a register.
	WriteReg(file string, idx int64, v uint64) error
	Host
}

// Host is what a compiled program calls at run time besides its
// register array: memory, the pipeline and traps.  Every Machine is a
// Host.
type Host interface {
	// ReadMem reads width bytes at addr (big-endian, zero-extended).
	ReadMem(addr uint64, width int) (uint64, error)
	// WriteMem writes the low width bytes of v at addr.
	WriteMem(addr uint64, width int, v uint64) error
	// PC returns the executing instruction's address.
	PC() uint64
	// SetPC establishes a control transfer; delayed transfers take
	// effect after one more instruction (the delay slot).
	SetPC(v uint64, delayed bool)
	// Annul suppresses execution of the following delay slot.
	Annul()
	// Trap raises a software trap.
	Trap(code uint64) error
}

// ErrDynamic is returned by restricted environments when an
// expression needs run-time state (register or memory contents).
var ErrDynamic = errors.New("rtl: value depends on run-time state")

// ExprEvaluator evaluates expressions against a Machine while
// carrying temporary bindings across calls.  Spawn's static analyses
// use it to step symbolically through semantic ASTs.
type ExprEvaluator struct{ ev *evaluator }

// NewExprEvaluator returns an expression evaluator over m.
func NewExprEvaluator(m Machine) *ExprEvaluator {
	return &ExprEvaluator{ev: &evaluator{m: m, temps: map[string]uint64{}}}
}

// Eval evaluates an expression.
func (e *ExprEvaluator) Eval(n Node) (uint64, error) { return e.ev.expr(n) }

// SetTemp binds a temporary visible to subsequent Eval calls.
func (e *ExprEvaluator) SetTemp(name string, v uint64) { e.ev.temps[name] = v }

// Machine returns the underlying environment.
func (e *ExprEvaluator) Machine() Machine { return e.ev.m }

// EvalError wraps evaluation failures with expression context.
type EvalError struct {
	Expr Node
	Msg  string
}

func (e *EvalError) Error() string { return fmt.Sprintf("rtl: eval %s: %s", e.Expr, e.Msg) }

type evaluator struct {
	m     Machine
	temps map[string]uint64
	step  int // current sequential step; >0 means "late" (delayed)
}

type pendingWrite struct {
	kind string // "reg", "mem", "pc"
	file string
	idx  int64
	addr uint64
	w    int
	val  uint64
}

// Exec executes a ground semantic statement list against m.
// Parallel operations within a step read all inputs before committing
// any register or memory writes; pc assignments in steps after the
// first are delayed transfers (paper §4: "the semicolon ... indicates
// that the first statement executes before the second, which overlaps
// the next instruction's execution").
func Exec(n Node, m Machine) error {
	ev := &evaluator{m: m, temps: map[string]uint64{}}
	seq, ok := n.(Seq)
	if !ok {
		seq = Seq{Steps: [][]Node{{n}}}
	}
	for i, step := range seq.Steps {
		ev.step = i
		var pend []pendingWrite
		for _, op := range step {
			p, err := ev.stmt(op)
			if err != nil {
				return err
			}
			pend = append(pend, p...)
		}
		for _, p := range pend {
			if err := ev.commit(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ev *evaluator) commit(p pendingWrite) error {
	switch p.kind {
	case "reg":
		return ev.m.WriteReg(p.file, p.idx, p.val)
	case "mem":
		return ev.m.WriteMem(p.addr, p.w, p.val)
	case "pc":
		ev.m.SetPC(p.val, ev.step > 0)
		return nil
	}
	return &EvalError{nil, "unknown pending write kind " + p.kind}
}

// stmt evaluates one operation, returning writes to commit at the end
// of the current parallel step.  Effects (annul, trap, temporaries)
// apply immediately.
func (ev *evaluator) stmt(n Node) ([]pendingWrite, error) {
	switch x := UnwrapSeq(n).(type) {
	case Assign:
		val, err := ev.expr(x.RHS)
		if err != nil {
			return nil, err
		}
		return ev.assign(x.LHS, val)
	case Cond:
		c, err := ev.expr(x.C)
		if err != nil {
			return nil, err
		}
		if c != 0 {
			return ev.stmt(x.T)
		}
		if x.F != nil {
			return ev.stmt(x.F)
		}
		return nil, nil
	case Seq:
		// A nested parenthesized group inside a guard arm: its
		// operations join the current step.
		var pend []pendingWrite
		for _, step := range x.Steps {
			for _, op := range step {
				p, err := ev.stmt(op)
				if err != nil {
					return nil, err
				}
				pend = append(pend, p...)
			}
		}
		return pend, nil
	case Ident:
		if x.Name == "annul" {
			ev.m.Annul()
			return nil, nil
		}
		return nil, &EvalError{x, "identifier is not a statement"}
	case Apply:
		fn, args := Spine(x)
		if id, ok := fn.(Ident); ok && id.Name == "trap" && len(args) == 1 {
			v, err := ev.expr(args[0])
			if err != nil {
				return nil, err
			}
			return nil, ev.m.Trap(v)
		}
		// Effectful builtins (register-window operations) evaluate
		// as expressions for their side effects.
		if _, err := ev.expr(x); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, &EvalError{n, "not a statement"}
	}
}

func (ev *evaluator) assign(lhs Node, val uint64) ([]pendingWrite, error) {
	switch t := UnwrapSeq(lhs).(type) {
	case Ident:
		if t.Name == "pc" {
			return []pendingWrite{{kind: "pc", val: val}}, nil
		}
		if file, idx, ok := ev.m.RegAlias(t.Name); ok {
			return []pendingWrite{{kind: "reg", file: file, idx: idx, val: val}}, nil
		}
		if _, isField := ev.m.Field(t.Name); isField {
			return nil, &EvalError{lhs, "cannot assign to instruction field " + t.Name}
		}
		// Local temporary; visible immediately.
		ev.temps[t.Name] = val
		return nil, nil
	case Index:
		base, ok := t.Base.(Ident)
		if !ok {
			return nil, &EvalError{lhs, "bad assignment target"}
		}
		if base.Name == "M" {
			addr, err := ev.expr(t.Elem)
			if err != nil {
				return nil, err
			}
			w, err := ev.widthOf(t)
			if err != nil {
				return nil, err
			}
			return []pendingWrite{{kind: "mem", addr: addr, w: w, val: val}}, nil
		}
		if !ev.m.IsRegFile(base.Name) {
			return nil, &EvalError{lhs, "unknown register file " + base.Name}
		}
		idx, err := ev.expr(t.Elem)
		if err != nil {
			return nil, err
		}
		return []pendingWrite{{kind: "reg", file: base.Name, idx: int64(idx), val: val}}, nil
	default:
		return nil, &EvalError{lhs, "bad assignment target"}
	}
}

func (ev *evaluator) widthOf(ix Index) (int, error) {
	if ix.Width == nil {
		return 4, nil
	}
	w, err := ev.expr(ix.Width)
	if err != nil {
		return 0, err
	}
	if w != 1 && w != 2 && w != 4 && w != 8 {
		return 0, &EvalError{ix, fmt.Sprintf("bad memory width %d", w)}
	}
	return int(w), nil
}

// expr evaluates an expression to a 64-bit value.  Signed quantities
// are carried as sign-extended uint64 bit patterns.
func (ev *evaluator) expr(n Node) (uint64, error) {
	switch x := UnwrapSeq(n).(type) {
	case Num:
		return uint64(x.Val), nil
	case Ident:
		return ev.ident(x)
	case Bin:
		return ev.bin(x)
	case Un:
		v, err := ev.expr(x.X)
		if err != nil {
			return 0, err
		}
		if f, ok := unOps[x.Op]; ok {
			return f(v), nil
		}
		return 0, &EvalError{n, "unknown unary op " + x.Op}
	case Cond:
		c, err := ev.expr(x.C)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return ev.expr(x.T)
		}
		if x.F == nil {
			return 0, &EvalError{n, "conditional expression lacks else arm"}
		}
		return ev.expr(x.F)
	case Index:
		return ev.index(x)
	case Apply:
		return ev.apply(x)
	default:
		return 0, &EvalError{n, "not an expression"}
	}
}

func (ev *evaluator) ident(x Ident) (uint64, error) {
	if v, ok := ev.temps[x.Name]; ok {
		return v, nil
	}
	if v, ok := ev.m.Field(x.Name); ok {
		return uint64(v), nil
	}
	if x.Name == "pc" {
		return ev.m.PC(), nil
	}
	if file, idx, ok := ev.m.RegAlias(x.Name); ok {
		return ev.m.ReadReg(file, idx)
	}
	return 0, &EvalError{x, "unknown identifier"}
}

func (ev *evaluator) index(x Index) (uint64, error) {
	base, ok := x.Base.(Ident)
	if !ok {
		return 0, &EvalError{x, "bad indexed reference"}
	}
	if base.Name == "M" {
		addr, err := ev.expr(x.Elem)
		if err != nil {
			return 0, err
		}
		w, err := ev.widthOf(x)
		if err != nil {
			return 0, err
		}
		return ev.m.ReadMem(addr, w)
	}
	if !ev.m.IsRegFile(base.Name) {
		return 0, &EvalError{x, "unknown register file " + base.Name}
	}
	idx, err := ev.expr(x.Elem)
	if err != nil {
		return 0, err
	}
	return ev.m.ReadReg(base.Name, int64(idx))
}

func (ev *evaluator) bin(x Bin) (uint64, error) {
	l, err := ev.expr(x.L)
	if err != nil {
		return 0, err
	}
	// Short-circuit logical operators.
	switch x.Op {
	case "&&":
		if l == 0 {
			return 0, nil
		}
		r, err := ev.expr(x.R)
		if err != nil {
			return 0, err
		}
		return b2u(r != 0), nil
	case "||":
		if l != 0 {
			return 1, nil
		}
		r, err := ev.expr(x.R)
		if err != nil {
			return 0, err
		}
		return b2u(r != 0), nil
	}
	r, err := ev.expr(x.R)
	if err != nil {
		return 0, err
	}
	if f, ok := binOps[x.Op]; ok {
		return f(l, r), nil
	}
	switch x.Op {
	case "/":
		if r == 0 {
			return 0, &EvalError{x, "division by zero"}
		}
		return uint64(int64(l) / int64(r)), nil
	case "%":
		if r == 0 {
			return 0, &EvalError{x, "division by zero"}
		}
		return uint64(int64(l) % int64(r)), nil
	}
	return 0, &EvalError{x, "unknown operator " + x.Op}
}

// apply evaluates builtin applications and condition tests.  It
// allocates nothing unless it fails.
func (ev *evaluator) apply(x Apply) (uint64, error) {
	fn, args := Spine(x)
	switch f := fn.(type) {
	case Sym:
		if len(args) != 1 {
			return 0, &EvalError{x, "condition test wants one register"}
		}
		v, err := ev.expr(args[0])
		if err != nil {
			return 0, err
		}
		return condTest(f.Name, v, x)
	case Ident:
		return ev.builtin(f.Name, args, x)
	default:
		return 0, &EvalError{x, "cannot apply non-function"}
	}
}

// Spine flattens nested Apply nodes into the head function and its
// argument list.
func Spine(n Node) (Node, []Node) {
	args := make([]Node, 0, 4)
	for a, ok := n.(Apply); ok; a, ok = n.(Apply) {
		args, n = append(args, a.Arg), a.Fn
	}
	slices.Reverse(args)
	return n, args
}

func (ev *evaluator) builtin(name string, args []Node, at Apply) (uint64, error) {
	vals := make([]uint64, 0, 4)
	for _, a := range args {
		v, err := ev.expr(a)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	if f, ok := builtins1[name]; ok {
		return need(1, vals, at, func() uint64 { return f(vals[0]) })
	}
	if f, ok := builtins2[name]; ok {
		return need(2, vals, at, func() uint64 { return f(vals[0], vals[1]) })
	}
	switch name {
	case "sex":
		// Sign-extend: sex(field) uses the field's declared width,
		// sex(x, w) extends from w bits.
		switch len(args) {
		case 1:
			id, ok := UnwrapSeq(args[0]).(Ident)
			if !ok {
				return 0, &EvalError{at, "sex of non-field needs explicit width"}
			}
			w, ok := ev.m.FieldWidth(id.Name)
			if !ok {
				return 0, &EvalError{at, "sex: unknown field " + id.Name}
			}
			return signExtend(vals[0], w), nil
		case 2:
			return signExtend(vals[0], int(vals[1])), nil
		}
		return 0, &EvalError{at, "sex wants 1 or 2 arguments"}
	case "udiv", "sdiv", "urem", "srem":
		if len(vals) != 2 {
			return 0, &EvalError{at, name + " wants 2 arguments"}
		}
		v, ok := divide(name, uint32(vals[0]), uint32(vals[1]))
		if !ok {
			return 0, &EvalError{at, "division by zero"}
		}
		return v, nil
	case "winsave", "winrestore":
		return 0, ev.special(name, slices.Clone(vals))
	}
	return 0, &EvalError{at, "unknown builtin " + name}
}

// special routes register-window operations through a side channel:
// environments that model windows implement SpecialMachine.
func (ev *evaluator) special(name string, vals []uint64) error {
	if sm, ok := ev.m.(SpecialMachine); ok {
		return sm.Special(name, vals)
	}
	return ErrDynamic
}

// SpecialMachine is implemented by environments that support
// machine-specific operations outside the core RTL model (SPARC
// register windows).
type SpecialMachine interface {
	Special(name string, args []uint64) error
}

func need(n int, vals []uint64, at Apply, f func() uint64) (uint64, error) {
	if len(vals) != n {
		return 0, &EvalError{at, fmt.Sprintf("builtin wants %d arguments, got %d", n, len(vals))}
	}
	return f(), nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func u32(x uint32) uint64 { return uint64(x) }

func signExtend(v uint64, w int) uint64 {
	if w <= 0 || w >= 64 {
		return v
	}
	shift := 64 - uint(w)
	return uint64(int64(v<<shift) >> shift)
}

// ccAdd computes SPARC integer condition codes (NZVC in PSR bits
// 23:20) for the 32-bit addition a+b.
func ccAdd(a, b uint32) uint64 {
	r := a + b
	var icc uint64
	if r&0x80000000 != 0 {
		icc |= 8 // N
	}
	if r == 0 {
		icc |= 4 // Z
	}
	if (a^r)&(b^r)&0x80000000 != 0 {
		icc |= 2 // V
	}
	if (uint64(a)+uint64(b))>>32 != 0 {
		icc |= 1 // C
	}
	return icc << 20
}

// ccSub computes condition codes for the 32-bit subtraction a-b
// (C set on borrow, as SPARC subcc does).
func ccSub(a, b uint32) uint64 {
	r := a - b
	var icc uint64
	if r&0x80000000 != 0 {
		icc |= 8
	}
	if r == 0 {
		icc |= 4
	}
	if (a^b)&(a^r)&0x80000000 != 0 {
		icc |= 2
	}
	if b > a {
		icc |= 1
	}
	return icc << 20
}

// ccLogic computes condition codes for a logical result (V and C
// cleared).
func ccLogic(r uint32) uint64 {
	var icc uint64
	if r&0x80000000 != 0 {
		icc |= 8
	}
	if r == 0 {
		icc |= 4
	}
	return icc << 20
}

// condTest applies a quoted condition symbol to a condition-code
// register value.  Integer tests read NZVC from PSR bits 23:20;
// floating tests (f-prefixed) read fcc from FSR bits 11:10.
func condTest(name string, regVal uint64, at Node) (uint64, error) {
	if fn, ok := condTests[name]; ok {
		return fn(regVal), nil
	}
	return 0, &EvalError{at, "unknown condition test '" + name}
}

// nzvc unpacks the integer condition codes from a PSR value.
func nzvc(r uint64) (n, z, v, c bool) {
	return r>>23&1 != 0, r>>22&1 != 0, r>>21&1 != 0, r>>20&1 != 0
}

var condTests = map[string]func(uint64) uint64{
	"a":   func(uint64) uint64 { return 1 },
	"n":   func(uint64) uint64 { return 0 },
	"ne":  func(r uint64) uint64 { _, z, _, _ := nzvc(r); return b2u(!z) },
	"e":   func(r uint64) uint64 { _, z, _, _ := nzvc(r); return b2u(z) },
	"g":   func(r uint64) uint64 { n, z, v, _ := nzvc(r); return b2u(!(z || (n != v))) },
	"le":  func(r uint64) uint64 { n, z, v, _ := nzvc(r); return b2u(z || (n != v)) },
	"ge":  func(r uint64) uint64 { n, _, v, _ := nzvc(r); return b2u(n == v) },
	"l":   func(r uint64) uint64 { n, _, v, _ := nzvc(r); return b2u(n != v) },
	"gu":  func(r uint64) uint64 { _, z, _, c := nzvc(r); return b2u(!(c || z)) },
	"leu": func(r uint64) uint64 { _, z, _, c := nzvc(r); return b2u(c || z) },
	"cc":  func(r uint64) uint64 { _, _, _, c := nzvc(r); return b2u(!c) },
	"cs":  func(r uint64) uint64 { _, _, _, c := nzvc(r); return b2u(c) },
	"pos": func(r uint64) uint64 { n, _, _, _ := nzvc(r); return b2u(!n) },
	"neg": func(r uint64) uint64 { n, _, _, _ := nzvc(r); return b2u(n) },
	"vc":  func(r uint64) uint64 { _, _, v, _ := nzvc(r); return b2u(!v) },
	"vs":  func(r uint64) uint64 { _, _, v, _ := nzvc(r); return b2u(v) },
}

func init() {
	for name, set := range fccSets {
		s := set
		condTests[name] = func(r uint64) uint64 {
			fcc := (r >> 10) & 3
			return b2u(s&(1<<fcc) != 0)
		}
	}
}

// fccSets maps floating-point branch conditions to the set of fcc
// values (bit i set ⇒ true when fcc==i; 0=E 1=L 2=G 3=U) on which
// the branch is taken.
var fccSets = map[string]uint{
	"fn":   0b0000,
	"fu":   0b1000,
	"fg":   0b0100,
	"fug":  0b1100,
	"fl":   0b0010,
	"ful":  0b1010,
	"flg":  0b0110,
	"fne":  0b1110,
	"fe":   0b0001,
	"fue":  0b1001,
	"fge":  0b0101,
	"fuge": 0b1101,
	"fle":  0b0011,
	"fule": 0b1011,
	"fo":   0b0111,
	"fa":   0b1111,
}
