package rtl

import (
	"fmt"
)

// This file implements the compile pass behind the emulator's
// translation cache: a ground semantic AST is lowered once into a
// flat program of closures specialized on the instruction's decoded
// field values.  Field references become constants, register indices
// and immediates fold at compile time (so "iflag = 1 ? sex(simm13) :
// R[rs2]" compiles to either a constant or a single register read),
// every register reference resolves through the description's
// RegLayout to a slot of the Regs array the program indexes (a read of
// the hardwired zero folds to 0, a write to it compiles to nothing),
// temporaries become slots in a reusable array instead of a map, and
// condition tests and builtins resolve to direct function calls.
// Executing a Prog therefore does no AST dispatch, no register-name
// lookup and, with a caller-supplied Ctx, no allocation on the common
// path.
//
// Compilation is deliberately conservative: any construct whose
// lowering cannot be proven equivalent to the interpreter (dynamic
// memory widths, register files indexed by a run-time value, unreduced
// lambdas, malformed statements, registers the layout does not hold)
// fails with a CompileError and the caller falls back to Exec, which
// remains the semantic reference.

// CompileEnv supplies what compilation fixes: the decoded
// instruction's field values and the description's register model.
type CompileEnv interface {
	// Field returns the decoded value of an instruction field.
	Field(name string) (int64, bool)
	// FieldWidth returns a field's declared bit width.
	FieldWidth(name string) (int, bool)
	// RegAlias resolves a named register to a register file and index.
	RegAlias(name string) (file string, idx int64, ok bool)
	// IsRegFile reports whether name denotes a register file.
	IsRegFile(name string) bool
	// Layout returns the description's register layout; nil when the
	// description has none the register array can hold.
	Layout() *RegLayout
}

// CompileError reports that a semantic AST cannot be lowered; callers
// fall back to the AST interpreter (Exec).
type CompileError struct {
	Expr Node
	Msg  string
}

func (e *CompileError) Error() string {
	if e.Expr == nil {
		return "rtl: compile: " + e.Msg
	}
	return fmt.Sprintf("rtl: compile %s: %s", e.Expr, e.Msg)
}

type exprFn func(ctx *Ctx) (uint64, error)

// OpFunc is one compiled operation of a direct-mode program; see
// Direct.Ops.  stmtFn is the internal name.
type OpFunc func(ctx *Ctx) error

type stmtFn = OpFunc

// cexpr is a compiled expression: a constant folded at compile time,
// or a closure evaluated at run time.  A bare register read also
// carries its slot so operators over it fuse into a single closure
// (see pure1/pure2) instead of a chain of evals — the eval chain is
// the hot path of every translated instruction.  safe marks an
// expression that can neither fail nor have effects, so a write of it
// to the hardwired zero can be dropped whole.  In direct mode, bin and
// mem keep the shape of a pure operator over two leaves (register
// reads or constants) and of a memory read, so a register write of
// either, or a store, lowers to one closure.
type cexpr struct {
	isConst bool
	val     uint64
	fn      exprFn
	isReg   bool
	slot    int
	safe    bool
	bin     *binExpr
	mem     *memExpr
}

// binExpr is "a op b" over two leaves, not both constant.
type binExpr struct {
	op   string
	f    func(x, y uint64) uint64
	a, b cexpr
}

// memExpr is a memory read of width w at a safe address, its value
// passed through ext when that is set (sexb, sexh).
type memExpr struct {
	addr cexpr
	w    int
	ext  func(uint64) uint64
}

// leaf evaluates a constant or register read.
func (e *cexpr) leaf(ctx *Ctx) uint64 {
	if e.isConst {
		return e.val
	}
	return uint64(ctx.r[e.slot])
}

// isLeaf reports whether e is a constant or a register read.
func (e *cexpr) isLeaf() bool { return e.isConst || e.isReg }

func constExpr(v uint64) cexpr { return cexpr{isConst: true, val: v, safe: true} }
func dynExpr(fn exprFn) cexpr  { return cexpr{fn: fn} }

func (e cexpr) eval(ctx *Ctx) (uint64, error) {
	if e.isConst {
		return e.val, nil
	}
	return e.fn(ctx)
}

// Pending-write kinds, mirroring the interpreter's parallel-step
// commit discipline.
const (
	pendReg = iota
	pendMem
	pendPC
)

type cpend struct {
	kind uint8
	w    uint8
	slot int32
	addr uint64
	val  uint64
}

// Ctx is the reusable scratch state for Prog.Run: the Host and
// register array a program runs against (see Bind), and buffers.
// Callers that execute many programs (the emulator) keep one Ctx so
// temporaries and pending writes never reallocate.
type Ctx struct {
	m     Host
	r     *Regs
	temps []uint64
	pend  []cpend
	// sargs is scratch for SpecialMachine calls, so register-window
	// operations do not allocate an argument slice per execution.
	sargs [2]uint64
	// cc is the routine tier's lazy condition-code record (see
	// LowerCC and FlushCC).
	cc ccRecord
}

// Prog is a compiled semantic program.  It is immutable after Compile
// and safe for concurrent Run calls with distinct Ctx values.
type Prog struct {
	steps  [][]stmtFn
	nTemps int
	flags  uint8
}

// Flags reports the program's effect summary.
func (p *Prog) Flags() uint8 { return p.flags }

// Bind points ctx at the Host and register array the programs it runs
// execute against.  r must hold the registers in the layout the
// programs were compiled under.
func (ctx *Ctx) Bind(m Host, r *Regs) { ctx.m, ctx.r = m, r }

// Run executes the program against ctx's binding, reusing its
// buffers.  The execution discipline is identical to Exec: parallel
// operations within a step read all inputs before any write commits,
// and pc assignments in steps after the first are delayed transfers.
func (p *Prog) Run(ctx *Ctx) error {
	m := ctx.m
	ctx.reset(p.nTemps)
	for i, step := range p.steps {
		ctx.pend = ctx.pend[:0]
		for _, op := range step {
			if err := op(ctx); err != nil {
				return err
			}
		}
		delayed := i > 0
		for j := range ctx.pend {
			pw := &ctx.pend[j]
			switch pw.kind {
			case pendReg:
				ctx.r[pw.slot] = uint32(pw.val)
			case pendMem:
				if err := m.WriteMem(pw.addr, int(pw.w), pw.val); err != nil {
					return err
				}
			default:
				m.SetPC(pw.val, delayed)
			}
		}
	}
	return nil
}

// reset zeroes n temporaries for a program run.
func (ctx *Ctx) reset(n int) {
	if cap(ctx.temps) < n {
		ctx.temps = make([]uint64, n)
		return
	}
	ctx.temps = ctx.temps[:n]
	clear(ctx.temps)
}

type compiler struct {
	env   CompileEnv
	l     *RegLayout
	slots map[string]int
	flags uint8
	// Direct mode (CompileDirect): assignments commit immediately and
	// an tracks the per-step equivalence proof (see direct.go).
	direct  bool
	stepIdx int
	an      *directAnalysis
	// pcKnown: the instruction's address is pcVal, so pc folds to it.
	pcKnown bool
	pcVal   uint64
}

// Compile lowers a ground semantic statement list to a Prog
// specialized on env's field values.
func Compile(n Node, env CompileEnv) (*Prog, error) {
	return newCompiler(env).program(n, false)
}

func newCompiler(env CompileEnv) *compiler {
	return &compiler{env: env, l: env.Layout(), slots: map[string]int{}}
}

// program lowers n with c's environment and residency settings.
func (c *compiler) program(n Node, direct bool) (*Prog, error) {
	if n == nil {
		return nil, &CompileError{nil, "no semantics"}
	}
	if c.l == nil {
		return nil, &CompileError{nil, "no register layout"}
	}
	c.direct = direct
	if direct {
		c.an = &directAnalysis{}
	}
	seq, ok := n.(Seq)
	if !ok {
		seq = Seq{Steps: [][]Node{{n}}}
	}
	p := &Prog{steps: make([][]stmtFn, 0, len(seq.Steps))}
	for i, step := range seq.Steps {
		c.stepIdx = i
		fns, err := c.lowerStep(step, n)
		if err != nil {
			return nil, err
		}
		p.steps = append(p.steps, fns)
	}
	p.nTemps = len(c.slots)
	p.flags = c.flags
	return p, nil
}

// lowerStep compiles one parallel step.  In direct mode, when the
// program-order lowering trips the intra-step analysis (typically a
// read of a register an earlier op just committed — subcc overwriting
// its own source while the cc op still wants the old value), the ops
// of the step are retried in other serializations: parallel-step
// semantics reads all inputs before any commit, so any order whose
// immediate commits are never read later in the step — under the
// stricter permuted-mode rules, see directAnalysis.permuted — yields
// the same observable state.  Re-lowering is idempotent (temp slots
// are keyed by name, effect flags are monotonic over the same op
// set), and closures from failed attempts are discarded.
func (c *compiler) lowerStep(step []Node, whole Node) ([]stmtFn, error) {
	if c.an != nil {
		c.an.resetStep()
	}
	var fns []stmtFn
	for _, op := range step {
		if err := c.stmt(op, &fns); err != nil {
			return nil, err
		}
	}
	if c.an == nil || !c.an.failed {
		return fns, nil
	}
	if n := len(step); n >= 2 && n <= 3 {
		order := make([]int, n)
		for perm := 1; permute(order, perm); perm++ {
			c.an.resetStep()
			c.an.permuted = true
			fns = nil
			for _, j := range order {
				if err := c.stmt(step[j], &fns); err != nil {
					return nil, err
				}
			}
			if !c.an.failed {
				return fns, nil
			}
		}
	}
	return nil, &CompileError{whole, "immediate write commits would be observable"}
}

// permute fills order with the k-th permutation of 0..len(order)-1
// (factorial number system; k=0 is identity).  It reports false when k
// is out of range.
func permute(order []int, k int) bool {
	n := len(order)
	avail := make([]int, n)
	for i := range avail {
		avail[i] = i
	}
	fact := 1
	for i := 2; i <= n; i++ {
		fact *= i
	}
	if k < 0 || k >= fact {
		return false
	}
	for i := 0; i < n; i++ {
		fact /= n - i
		j := k / fact
		k %= fact
		order[i] = avail[j]
		avail = append(avail[:j], avail[j+1:]...)
	}
	return true
}

func (c *compiler) slot(name string) int {
	if s, ok := c.slots[name]; ok {
		return s
	}
	s := len(c.slots)
	c.slots[name] = s
	return s
}

// stmt compiles one operation, appending its closures to out.
func (c *compiler) stmt(n Node, out *[]stmtFn) error {
	switch x := UnwrapSeq(n).(type) {
	case Assign:
		rhs, err := c.expr(x.RHS)
		if err != nil {
			return err
		}
		return c.assign(x.LHS, rhs, out)
	case Cond:
		cond, err := c.expr(x.C)
		if err != nil {
			return err
		}
		// A constant guard (the annul bit, an immediate-form flag)
		// selects its arm at compile time.
		if cond.isConst {
			if cond.val != 0 {
				return c.stmt(x.T, out)
			}
			if x.F != nil {
				return c.stmt(x.F, out)
			}
			return nil
		}
		var tOps, fOps []stmtFn
		if err := c.stmt(x.T, &tOps); err != nil {
			return err
		}
		if x.F != nil {
			if err := c.stmt(x.F, &fOps); err != nil {
				return err
			}
		}
		fn := cond.fn
		*out = append(*out, func(ctx *Ctx) error {
			v, err := fn(ctx)
			if err != nil {
				return err
			}
			ops := fOps
			if v != 0 {
				ops = tOps
			}
			for _, op := range ops {
				if err := op(ctx); err != nil {
					return err
				}
			}
			return nil
		})
		return nil
	case Seq:
		// A nested parenthesized group inside a guard arm joins the
		// current step, as in the interpreter.
		for _, step := range x.Steps {
			for _, op := range step {
				if err := c.stmt(op, out); err != nil {
					return err
				}
			}
		}
		return nil
	case Ident:
		if x.Name == "annul" {
			// Annulment happens during evaluation in both modes and
			// reads nothing, so direct mode needs no analysis note.
			c.flags |= FlagAnnul
			*out = append(*out, func(ctx *Ctx) error {
				ctx.m.Annul()
				return nil
			})
			return nil
		}
		return &CompileError{x, "identifier is not a statement"}
	case Apply:
		fn, args := Spine(x)
		if id, ok := fn.(Ident); ok && id.Name == "trap" && len(args) == 1 {
			arg, err := c.expr(args[0])
			if err != nil {
				return err
			}
			c.flags |= FlagTrap
			if c.an != nil {
				c.an.exclusive()
			}
			*out = append(*out, func(ctx *Ctx) error {
				v, err := arg.eval(ctx)
				if err != nil {
					return err
				}
				return ctx.m.Trap(v)
			})
			return nil
		}
		if id, ok := fn.(Ident); ok && (id.Name == "winsave" || id.Name == "winrestore") && len(args) == 2 {
			a, err := c.expr(args[0])
			if err != nil {
				return err
			}
			b, err := c.expr(args[1])
			if err != nil {
				return err
			}
			*out = append(*out, c.window(id.Name, a, b))
			return nil
		}
		// Any other effectful builtin evaluates as an expression for its
		// side effects.
		e, err := c.expr(x)
		if err != nil {
			return err
		}
		if e.isConst {
			return nil
		}
		efn := e.fn
		*out = append(*out, func(ctx *Ctx) error {
			_, err := efn(ctx)
			return err
		})
		return nil
	default:
		return &CompileError{n, "not a statement"}
	}
}

// regSlot resolves the constant register reference file[idx] to its
// slot.  A register the layout does not hold does not compile (see
// unknownReg), so Exec reports it.
func (c *compiler) regSlot(file string, idx int64) (int, bool) {
	s, ok := c.l.Slot(file, idx)
	if ok && extended(s) {
		c.flags |= FlagExtended
	}
	return s, ok
}

// extended reports whether slot s is one of the integer file's
// extended slots (32..34).
func extended(s int) bool { return s >= 32 && s < FloatSlot }

// regRef resolves a register reference (an alias, or a register file
// indexed by a compile-time constant) to its slot, the hardwired zero
// included.
func (c *compiler) regRef(n Node) (int, bool) {
	switch x := UnwrapSeq(n).(type) {
	case Ident:
		if file, idx, ok := c.env.RegAlias(x.Name); ok {
			return c.l.Slot(file, idx)
		}
	case Index:
		base, isID := x.Base.(Ident)
		if !isID || base.Name == "M" || !c.env.IsRegFile(base.Name) {
			return 0, false
		}
		if i, err := c.expr(x.Elem); err == nil && i.isConst {
			return c.l.Slot(base.Name, int64(i.val))
		}
	}
	return 0, false
}

// unknownReg is the CompileError of a reference at n to a register the
// layout does not hold.  (It takes the node only on this path: boxing
// it for every reference would allocate.)
func unknownReg(n Node, file string, idx int64) error {
	return &CompileError{n, fmt.Sprintf("unknown register %s[%d]", file, idx)}
}

// dynamicIndex is the CompileError of a register file indexed at n by
// a run-time value.  No description does that (every index is a field
// or a constant), so the slot array has no run-time lookup and Exec
// runs such a word.
func dynamicIndex(n Node, file string) error {
	return &CompileError{n, "dynamic index into register file " + file}
}

// regWrite appends the committing closure for a write of rhs to slot
// s: buffered in normal mode, immediate in direct mode.  A write to
// the hardwired zero is dropped, leaving only an evaluation that can
// fail or has effects.
func (c *compiler) regWrite(s int, rhs cexpr, out *[]stmtFn) {
	var fn stmtFn
	switch {
	case c.l.IsZero(s):
		if rhs.safe {
			return
		}
		fn = func(ctx *Ctx) error {
			_, err := rhs.fn(ctx)
			return err
		}
	case !c.direct:
		fn = func(ctx *Ctx) error {
			v, err := rhs.eval(ctx)
			if err != nil {
				return err
			}
			ctx.pend = append(ctx.pend, cpend{kind: pendReg, slot: int32(s), val: v})
			return nil
		}
	case rhs.isConst:
		v := uint32(rhs.val)
		fn = func(ctx *Ctx) error { ctx.r[s] = v; return nil }
	case rhs.isReg:
		src := rhs.slot
		fn = func(ctx *Ctx) error { ctx.r[s] = ctx.r[src]; return nil }
	case rhs.bin != nil:
		fn = aluWrite(s, rhs.bin)
	case rhs.mem != nil:
		fn = loadWrite(s, rhs.mem)
	default:
		efn := rhs.fn
		fn = func(ctx *Ctx) error {
			v, err := efn(ctx)
			if err != nil {
				return err
			}
			ctx.r[s] = uint32(v)
			return nil
		}
	}
	if c.an != nil && !c.l.IsZero(s) {
		c.an.regWrite(s)
	}
	*out = append(*out, fn)
}

func (c *compiler) assign(lhs Node, rhs cexpr, out *[]stmtFn) error {
	switch t := UnwrapSeq(lhs).(type) {
	case Ident:
		if t.Name == "pc" {
			c.flags |= FlagPC
			if c.an != nil {
				c.an.pcWrite()
			}
			if c.direct {
				// Whether a pc assignment is a delayed transfer depends
				// only on its step position, so the flag folds here.
				delayed := c.stepIdx > 0
				*out = append(*out, func(ctx *Ctx) error {
					v, err := rhs.eval(ctx)
					if err != nil {
						return err
					}
					ctx.m.SetPC(v, delayed)
					return nil
				})
				return nil
			}
			*out = append(*out, func(ctx *Ctx) error {
				v, err := rhs.eval(ctx)
				if err != nil {
					return err
				}
				ctx.pend = append(ctx.pend, cpend{kind: pendPC, val: v})
				return nil
			})
			return nil
		}
		if file, idx, ok := c.env.RegAlias(t.Name); ok {
			s, ok := c.regSlot(file, idx)
			if !ok {
				return unknownReg(t, file, idx)
			}
			c.regWrite(s, rhs, out)
			return nil
		}
		if _, isField := c.env.Field(t.Name); isField {
			return &CompileError{lhs, "cannot assign to instruction field " + t.Name}
		}
		// Local temporary; visible immediately.
		slot := c.slot(t.Name)
		*out = append(*out, func(ctx *Ctx) error {
			v, err := rhs.eval(ctx)
			if err != nil {
				return err
			}
			ctx.temps[slot] = v
			return nil
		})
		return nil
	case Index:
		base, ok := t.Base.(Ident)
		if !ok {
			return &CompileError{lhs, "bad assignment target"}
		}
		if base.Name == "M" {
			addr, err := c.expr(t.Elem)
			if err != nil {
				return err
			}
			w, err := c.width(t)
			if err != nil {
				return err
			}
			c.flags |= FlagMemWrite
			if c.an != nil {
				c.an.memWrite()
			}
			if c.direct {
				*out = append(*out, store(addr, w, rhs))
				return nil
			}
			w8 := uint8(w)
			*out = append(*out, func(ctx *Ctx) error {
				v, err := rhs.eval(ctx)
				if err != nil {
					return err
				}
				a, err := addr.eval(ctx)
				if err != nil {
					return err
				}
				ctx.pend = append(ctx.pend, cpend{kind: pendMem, addr: a, w: w8, val: v})
				return nil
			})
			return nil
		}
		if !c.env.IsRegFile(base.Name) {
			return &CompileError{lhs, "unknown register file " + base.Name}
		}
		idx, err := c.expr(t.Elem)
		if err != nil {
			return err
		}
		if idx.isConst {
			s, ok := c.regSlot(base.Name, int64(idx.val))
			if !ok {
				return unknownReg(t, base.Name, int64(idx.val))
			}
			c.regWrite(s, rhs, out)
			return nil
		}
		return dynamicIndex(t, base.Name)
	default:
		return &CompileError{lhs, "bad assignment target"}
	}
}

func (c *compiler) width(ix Index) (int, error) {
	if ix.Width == nil {
		return 4, nil
	}
	w, err := c.expr(ix.Width)
	if err != nil {
		return 0, err
	}
	if !w.isConst {
		return 0, &CompileError{ix, "dynamic memory width"}
	}
	if w.val != 1 && w.val != 2 && w.val != 4 && w.val != 8 {
		return 0, &CompileError{ix, fmt.Sprintf("bad memory width %d", w.val)}
	}
	return int(w.val), nil
}

func (c *compiler) expr(n Node) (cexpr, error) {
	switch x := UnwrapSeq(n).(type) {
	case Num:
		return constExpr(uint64(x.Val)), nil
	case Ident:
		return c.ident(x)
	case Bin:
		return c.bin(x)
	case Un:
		v, err := c.expr(x.X)
		if err != nil {
			return cexpr{}, err
		}
		if f, ok := unOps[x.Op]; ok {
			return pure1(v, f), nil
		}
		return cexpr{}, &CompileError{n, "unknown unary op " + x.Op}
	case Cond:
		cond, err := c.expr(x.C)
		if err != nil {
			return cexpr{}, err
		}
		if cond.isConst {
			if cond.val != 0 {
				return c.expr(x.T)
			}
			if x.F == nil {
				return cexpr{}, &CompileError{n, "conditional expression lacks else arm"}
			}
			return c.expr(x.F)
		}
		t, err := c.expr(x.T)
		if err != nil {
			return cexpr{}, err
		}
		var f cexpr
		if x.F == nil {
			// The interpreter only errors when the condition is false
			// at run time; preserve that.
			if c.an != nil {
				c.an.mayErr()
			}
			at := n
			f = dynExpr(func(ctx *Ctx) (uint64, error) {
				return 0, &EvalError{at, "conditional expression lacks else arm"}
			})
		} else {
			if f, err = c.expr(x.F); err != nil {
				return cexpr{}, err
			}
		}
		cfn := cond.fn
		return dynExpr(func(ctx *Ctx) (uint64, error) {
			v, err := cfn(ctx)
			if err != nil {
				return 0, err
			}
			if v != 0 {
				return t.eval(ctx)
			}
			return f.eval(ctx)
		}), nil
	case Index:
		return c.indexExpr(x)
	case Apply:
		return c.applyExpr(x)
	default:
		return cexpr{}, &CompileError{n, "not an expression"}
	}
}

func (c *compiler) ident(x Ident) (cexpr, error) {
	// Mirror the interpreter's precedence: temporaries, fields, pc,
	// register aliases.  (Temporary and field names never collide:
	// assignment to a field name is rejected.)
	if slot, ok := c.slots[x.Name]; ok {
		e := dynExpr(func(ctx *Ctx) (uint64, error) { return ctx.temps[slot], nil })
		e.safe = true
		return e, nil
	}
	if v, ok := c.env.Field(x.Name); ok {
		return constExpr(uint64(v)), nil
	}
	if x.Name == "pc" && c.pcKnown {
		return constExpr(c.pcVal), nil
	}
	if x.Name == "pc" {
		c.flags |= FlagPCRead
		if c.an != nil {
			c.an.pcRead()
		}
		return dynExpr(func(ctx *Ctx) (uint64, error) { return ctx.m.PC(), nil }), nil
	}
	if file, idx, ok := c.env.RegAlias(x.Name); ok {
		s, ok := c.regSlot(file, idx)
		if !ok {
			return cexpr{}, unknownReg(x, file, idx)
		}
		return c.regRead(s), nil
	}
	return cexpr{}, &CompileError{x, "unknown identifier"}
}

// regRead is a read of slot s; the hardwired zero folds to 0.
func (c *compiler) regRead(s int) cexpr {
	if c.l.IsZero(s) {
		return constExpr(0)
	}
	if c.an != nil {
		c.an.regRead(s)
	}
	return cexpr{
		fn:    func(ctx *Ctx) (uint64, error) { return uint64(ctx.r[s]), nil },
		isReg: true,
		slot:  s,
		safe:  true,
	}
}

func (c *compiler) indexExpr(x Index) (cexpr, error) {
	base, ok := x.Base.(Ident)
	if !ok {
		return cexpr{}, &CompileError{x, "bad indexed reference"}
	}
	if base.Name == "M" {
		addr, err := c.expr(x.Elem)
		if err != nil {
			return cexpr{}, err
		}
		w, err := c.width(x)
		if err != nil {
			return cexpr{}, err
		}
		if c.an != nil {
			c.an.memRead()
		}
		e := dynExpr(func(ctx *Ctx) (uint64, error) {
			a, err := addr.eval(ctx)
			if err != nil {
				return 0, err
			}
			return ctx.m.ReadMem(a, w)
		})
		if c.direct && addr.safe {
			e.mem = &memExpr{addr: addr, w: w}
		}
		return e, nil
	}
	if !c.env.IsRegFile(base.Name) {
		return cexpr{}, &CompileError{x, "unknown register file " + base.Name}
	}
	idx, err := c.expr(x.Elem)
	if err != nil {
		return cexpr{}, err
	}
	if idx.isConst {
		s, ok := c.regSlot(base.Name, int64(idx.val))
		if !ok {
			return cexpr{}, unknownReg(x, base.Name, int64(idx.val))
		}
		return c.regRead(s), nil
	}
	return cexpr{}, dynamicIndex(x, base.Name)
}

func (c *compiler) bin(x Bin) (cexpr, error) {
	l, err := c.expr(x.L)
	if err != nil {
		return cexpr{}, err
	}
	switch x.Op {
	case "&&", "||":
		r, err := c.expr(x.R)
		if err != nil {
			return cexpr{}, err
		}
		and := x.Op == "&&"
		if l.isConst {
			if and && l.val == 0 {
				return constExpr(0), nil
			}
			if !and && l.val != 0 {
				return constExpr(1), nil
			}
			return pure1(r, func(v uint64) uint64 { return b2u(v != 0) }), nil
		}
		lfn := l.fn
		return dynExpr(func(ctx *Ctx) (uint64, error) {
			lv, err := lfn(ctx)
			if err != nil {
				return 0, err
			}
			if and && lv == 0 {
				return 0, nil
			}
			if !and && lv != 0 {
				return 1, nil
			}
			rv, err := r.eval(ctx)
			if err != nil {
				return 0, err
			}
			return b2u(rv != 0), nil
		}), nil
	}
	r, err := c.expr(x.R)
	if err != nil {
		return cexpr{}, err
	}
	if f, ok := binOps[x.Op]; ok {
		return c.op2(x.Op, l, r, f), nil
	}
	switch x.Op {
	case "/", "%":
		mod := x.Op == "%"
		if c.an != nil {
			c.an.mayErr()
		}
		at := x
		div := func(a, b uint64) (uint64, error) {
			if b == 0 {
				return 0, &EvalError{at, "division by zero"}
			}
			if mod {
				return uint64(int64(a) % int64(b)), nil
			}
			return uint64(int64(a) / int64(b)), nil
		}
		if l.isConst && r.isConst {
			if v, err := div(l.val, r.val); err == nil {
				return constExpr(v), nil
			}
		}
		return dynExpr(func(ctx *Ctx) (uint64, error) {
			a, err := l.eval(ctx)
			if err != nil {
				return 0, err
			}
			b, err := r.eval(ctx)
			if err != nil {
				return 0, err
			}
			return div(a, b)
		}), nil
	}
	return cexpr{}, &CompileError{x, "unknown operator " + x.Op}
}

func (c *compiler) applyExpr(x Apply) (cexpr, error) {
	fn, args := Spine(x)
	switch f := fn.(type) {
	case Sym:
		if len(args) != 1 {
			return cexpr{}, &CompileError{x, "condition test wants one register"}
		}
		// Resolve the condition name at compile time to a pure test:
		// calling condTest from the closure would box the AST context
		// argument into an interface on every executed branch, one
		// heap allocation per dynamic condition evaluation.
		test, ok := condTests[f.Name]
		if !ok {
			return cexpr{}, &CompileError{x, "unknown condition test '" + f.Name}
		}
		arg, err := c.expr(args[0])
		if err != nil {
			return cexpr{}, err
		}
		return pure1(arg, test), nil
	case Ident:
		return c.builtinExpr(f.Name, args, x)
	default:
		return cexpr{}, &CompileError{x, "cannot apply non-function"}
	}
}

func (c *compiler) builtinExpr(name string, args []Node, at Node) (cexpr, error) {
	vals := make([]cexpr, len(args))
	for i, a := range args {
		v, err := c.expr(a)
		if err != nil {
			return cexpr{}, err
		}
		vals[i] = v
	}
	argc := func(n int) error {
		if len(vals) != n {
			return &CompileError{at, fmt.Sprintf("builtin %s wants %d arguments, got %d", name, n, len(vals))}
		}
		return nil
	}
	if f, ok := builtins1[name]; ok {
		if err := argc(1); err != nil {
			return cexpr{}, err
		}
		return pure1(vals[0], f), nil
	}
	if f, ok := builtins2[name]; ok {
		if err := argc(2); err != nil {
			return cexpr{}, err
		}
		return c.op2(name, vals[0], vals[1], f), nil
	}
	switch name {
	case "sex":
		switch len(args) {
		case 1:
			id, ok := UnwrapSeq(args[0]).(Ident)
			if !ok {
				return cexpr{}, &CompileError{at, "sex of non-field needs explicit width"}
			}
			w, ok := c.env.FieldWidth(id.Name)
			if !ok {
				return cexpr{}, &CompileError{at, "sex: unknown field " + id.Name}
			}
			return pure1(vals[0], func(v uint64) uint64 { return signExtend(v, w) }), nil
		case 2:
			return pure2(vals[0], vals[1], func(v, w uint64) uint64 { return signExtend(v, int(w)) }), nil
		}
		return cexpr{}, &CompileError{at, "sex wants 1 or 2 arguments"}
	case "udiv", "sdiv", "urem", "srem":
		if err := argc(2); err != nil {
			return cexpr{}, err
		}
		op, l, r := name, vals[0], vals[1]
		if c.an != nil {
			c.an.mayErr()
		}
		return dynExpr(func(ctx *Ctx) (uint64, error) {
			av, err := l.eval(ctx)
			if err != nil {
				return 0, err
			}
			bv, err := r.eval(ctx)
			if err != nil {
				return 0, err
			}
			v, ok := divide(op, uint32(av), uint32(bv))
			if !ok {
				return 0, &EvalError{at, "division by zero"}
			}
			return v, nil
		}), nil
	case "winsave", "winrestore":
		if err := argc(2); err != nil {
			return cexpr{}, err
		}
		st := c.window(name, vals[0], vals[1])
		return dynExpr(func(ctx *Ctx) (uint64, error) { return 0, st(ctx) }), nil
	}
	return cexpr{}, &CompileError{at, "unknown builtin " + name}
}

// window lowers the register-window special name(a, b), run through
// the bound Host's SpecialMachine.  The ctx-owned scratch keeps it
// from allocating an argument slice per execution.
func (c *compiler) window(name string, a, b cexpr) stmtFn {
	c.flags |= FlagSpecial
	if c.an != nil {
		c.an.exclusive()
	}
	if x, ok := baseOff(a); ok && x.b.isConst && b.isConst {
		s, k, bv := x.a.slot, x.b.val, b.val
		return func(ctx *Ctx) error {
			sm, ok := ctx.m.(SpecialMachine)
			if !ok {
				return ErrDynamic
			}
			ctx.sargs[0], ctx.sargs[1] = uint64(ctx.r[s])+k, bv
			return sm.Special(name, ctx.sargs[:2])
		}
	}
	return func(ctx *Ctx) error {
		av, err := a.eval(ctx)
		if err != nil {
			return err
		}
		bv, err := b.eval(ctx)
		if err != nil {
			return err
		}
		sm, ok := ctx.m.(SpecialMachine)
		if !ok {
			return ErrDynamic
		}
		ctx.sargs[0], ctx.sargs[1] = av, bv
		return sm.Special(name, ctx.sargs[:2])
	}
}

// pure1 builds a one-argument pure operation, folding constants and
// fusing a register-read argument into the operator's own closure so
// evaluation is one call instead of a chain.
func pure1(a cexpr, f func(uint64) uint64) cexpr {
	if a.isConst {
		return constExpr(f(a.val))
	}
	var e cexpr
	if a.isReg {
		s := a.slot
		e = dynExpr(func(ctx *Ctx) (uint64, error) { return f(uint64(ctx.r[s])), nil })
	} else {
		fn := a.fn
		e = dynExpr(func(ctx *Ctx) (uint64, error) {
			v, err := fn(ctx)
			if err != nil {
				return 0, err
			}
			return f(v), nil
		})
	}
	e.safe = a.safe
	if a.mem != nil && a.mem.ext == nil {
		e.mem = &memExpr{addr: a.mem.addr, w: a.mem.w, ext: f}
	}
	return e
}

// pure2 builds a two-argument pure operation, folding constants.  The
// common argument shapes — register reads and constants, which is what
// every ALU instruction lowers to — fuse into a single closure; the
// left-then-right evaluation order of the generic form is preserved in
// each specialization.
func pure2(a, b cexpr, f func(x, y uint64) uint64) cexpr {
	if a.isConst && b.isConst {
		return constExpr(f(a.val, b.val))
	}
	e := pure2fn(a, b, f)
	e.safe = a.safe && b.safe
	return e
}

// op2 is pure2 for operator op, keeping its shape over two leaves in
// direct mode, whose writes fuse it (the buffered form never does).
func (c *compiler) op2(op string, a, b cexpr, f func(x, y uint64) uint64) cexpr {
	e := pure2(a, b, f)
	if c.direct && !e.isConst && a.isLeaf() && b.isLeaf() {
		e.bin = &binExpr{op: op, f: f, a: a, b: b}
	}
	return e
}

func pure2fn(a, b cexpr, f func(x, y uint64) uint64) cexpr {
	if a.isReg {
		as := a.slot
		switch {
		case b.isConst:
			k := b.val
			return dynExpr(func(ctx *Ctx) (uint64, error) { return f(uint64(ctx.r[as]), k), nil })
		case b.isReg:
			bs := b.slot
			return dynExpr(func(ctx *Ctx) (uint64, error) { return f(uint64(ctx.r[as]), uint64(ctx.r[bs])), nil })
		default:
			bfn := b.fn
			return dynExpr(func(ctx *Ctx) (uint64, error) {
				x := uint64(ctx.r[as])
				y, err := bfn(ctx)
				if err != nil {
					return 0, err
				}
				return f(x, y), nil
			})
		}
	}
	if a.isConst && b.isReg {
		k, bs := a.val, b.slot
		return dynExpr(func(ctx *Ctx) (uint64, error) { return f(k, uint64(ctx.r[bs])), nil })
	}
	if !a.isConst && b.isConst {
		afn, k := a.fn, b.val
		return dynExpr(func(ctx *Ctx) (uint64, error) {
			x, err := afn(ctx)
			if err != nil {
				return 0, err
			}
			return f(x, k), nil
		})
	}
	return dynExpr(func(ctx *Ctx) (uint64, error) {
		x, err := a.eval(ctx)
		if err != nil {
			return 0, err
		}
		y, err := b.eval(ctx)
		if err != nil {
			return 0, err
		}
		return f(x, y), nil
	})
}

// aluWrite is direct mode's R[s] := a op b as one closure, with the
// commonest operators inlined for a register left operand.  Each form
// keeps the low 32 bits of f over the 64-bit operands.
func aluWrite(s int, x *binExpr) stmtFn {
	f := x.f
	if !x.a.isReg {
		k, b := x.a.val, x.b.slot
		return func(ctx *Ctx) error { ctx.r[s] = uint32(f(k, uint64(ctx.r[b]))); return nil }
	}
	a := x.a.slot
	if x.b.isConst {
		k := uint32(x.b.val)
		switch x.op {
		case "+":
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] + k; return nil }
		case "-":
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] - k; return nil }
		case "&":
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] & k; return nil }
		case "|":
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] | k; return nil }
		case "^":
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] ^ k; return nil }
		case "shl":
			k &= 31
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] << k; return nil }
		case "shr":
			k &= 31
			return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] >> k; return nil }
		case "sar":
			k &= 31
			return func(ctx *Ctx) error { ctx.r[s] = uint32(int32(ctx.r[a]) >> k); return nil }
		}
		kv := x.b.val
		return func(ctx *Ctx) error { ctx.r[s] = uint32(f(uint64(ctx.r[a]), kv)); return nil }
	}
	b := x.b.slot
	switch x.op {
	case "+":
		return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] + ctx.r[b]; return nil }
	case "-":
		return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] - ctx.r[b]; return nil }
	case "&":
		return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] & ctx.r[b]; return nil }
	case "|":
		return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] | ctx.r[b]; return nil }
	case "^":
		return func(ctx *Ctx) error { ctx.r[s] = ctx.r[a] ^ ctx.r[b]; return nil }
	}
	return func(ctx *Ctx) error { ctx.r[s] = uint32(f(uint64(ctx.r[a]), uint64(ctx.r[b]))); return nil }
}

// baseOff matches the address R[a] + (k | R[b]).
func baseOff(addr cexpr) (*binExpr, bool) {
	x := addr.bin
	return x, x != nil && x.op == "+" && x.a.isReg
}

// loadWrite is direct mode's R[s] := M[addr]{w} (through ext) as one
// closure.
func loadWrite(s int, m *memExpr) stmtFn {
	w, ext := m.w, m.ext
	if x, ok := baseOff(m.addr); ok && ext == nil {
		a := x.a.slot
		if x.b.isConst {
			k := x.b.val
			return func(ctx *Ctx) error {
				v, err := ctx.m.ReadMem(uint64(ctx.r[a])+k, w)
				if err != nil {
					return err
				}
				ctx.r[s] = uint32(v)
				return nil
			}
		}
		b := x.b.slot
		return func(ctx *Ctx) error {
			v, err := ctx.m.ReadMem(uint64(ctx.r[a])+uint64(ctx.r[b]), w)
			if err != nil {
				return err
			}
			ctx.r[s] = uint32(v)
			return nil
		}
	}
	addr := m.addr
	return func(ctx *Ctx) error {
		a, _ := addr.eval(ctx) // a safe address cannot fail
		v, err := ctx.m.ReadMem(a, w)
		if err != nil {
			return err
		}
		if ext != nil {
			v = ext(v)
		}
		ctx.r[s] = uint32(v)
		return nil
	}
}

// store is direct mode's M[addr]{w} := rhs, as one closure when the
// value is a register and the address R[a] + (k | R[b]).
func store(addr cexpr, w int, rhs cexpr) stmtFn {
	if x, ok := baseOff(addr); ok && rhs.isReg {
		a, v := x.a.slot, rhs.slot
		if x.b.isConst {
			k := x.b.val
			return func(ctx *Ctx) error { return ctx.m.WriteMem(uint64(ctx.r[a])+k, w, uint64(ctx.r[v])) }
		}
		b := x.b.slot
		return func(ctx *Ctx) error {
			return ctx.m.WriteMem(uint64(ctx.r[a])+uint64(ctx.r[b]), w, uint64(ctx.r[v]))
		}
	}
	return func(ctx *Ctx) error {
		v, err := rhs.eval(ctx)
		if err != nil {
			return err
		}
		a, err := addr.eval(ctx)
		if err != nil {
			return err
		}
		return ctx.m.WriteMem(a, w, v)
	}
}
