// Routine-tier lowering: what the emulator's routine tier needs beyond
// direct mode (CompileDirect), which lowers every body word the tier
// runs.  The tier keeps the condition codes lazy: LowerCC lowers a
// register write paired with a cc_add/cc_sub/cc_logic assignment to
// the write plus a record of the builtin's operands in the Ctx, which
// FlushCC materializes only when something may read the flags.
// LowerXfer decomposes a control transfer at a known address into its
// guard, target, annulment and link write, fusing a condition test
// over the recorded flags into one comparison of the operands.  Both
// read the compiler's own compiled expressions.  Composing routine
// programs (extent, CFG, liveness, blocks, linking) is the emulator's
// business.
package rtl

import "fmt"

// RWindow is one saved register window (locals + ins).  The emulator's
// window stack aliases this type.
type RWindow struct {
	Locals, Ins [8]uint32
}

// ShiftWindow moves the register file r one window: save pushes the
// current locals and ins onto ws, makes the outs the new ins, and
// clears the new outs and locals; restore reverses it (an empty stack
// zeroes locals and ins).
func ShiftWindow(r *[32]uint32, ws *[]RWindow, save bool) {
	if save {
		var w RWindow
		copy(w.Locals[:], r[16:24])
		copy(w.Ins[:], r[24:32])
		*ws = append(*ws, w)
		copy(r[24:32], r[8:16])
		clear(r[8:24])
		return
	}
	copy(r[8:16], r[24:32])
	if n := len(*ws); n > 0 {
		w := (*ws)[n-1]
		*ws = (*ws)[:n-1]
		copy(r[16:24], w.Locals[:])
		copy(r[24:32], w.Ins[:])
		return
	}
	clear(r[16:32])
}

// WindowSpecial implements the winsave/winrestore builtins for a
// SpecialMachine: shift the window, then write args[0] (computed in
// the old window) to register args[1] of the new one.
func WindowSpecial(r *[32]uint32, ws *[]RWindow, name string, args []uint64) error {
	if name != "winsave" && name != "winrestore" {
		return fmt.Errorf("rtl: unknown special %q", name)
	}
	if len(args) != 2 {
		return fmt.Errorf("rtl: %s wants 2 arguments", name)
	}
	ShiftWindow(r, ws, name == "winsave")
	if rd := args[1]; rd != 0 && rd < 32 {
		r[rd] = uint32(args[0])
	}
	return nil
}

// Lazy condition-code kinds: the builtin a record stands for.  A
// cc_logic(r) record is kept as cc_sub(r, 0), which sets the same
// flags, so it fuses like a compare with zero.
const (
	ccNone = iota
	ccKAdd
	ccKSub
)

var ccKinds = map[string]uint8{"cc_add": ccKAdd, "cc_sub": ccKSub, "cc_logic": ccKSub}

// ccRecord is a lazy condition-code record: the builtin kind and
// operands of the last cc pair run, and the extended slot they stand
// for, which is stale while k != ccNone.
type ccRecord struct {
	k    uint8
	dst  int
	a, b uint32
}

// FlushCC materializes the lazy condition codes into their slot.  The
// recorded operands are kept, so a branch fused before the flush still
// sees them.
func (ctx *Ctx) FlushCC() {
	var v uint64
	switch ctx.cc.k {
	case ccNone:
		return
	case ccKAdd:
		v = ccAdd(ctx.cc.a, ctx.cc.b)
	default:
		v = ccSub(ctx.cc.a, ctx.cc.b)
	}
	ctx.r[ctx.cc.dst] = uint32(v)
	ctx.cc.k = ccNone
}

// CCPair is a register write paired with a condition-code assignment,
// lowered for the routine tier.
type CCPair struct {
	// Op writes the register and records the flags' operands lazily,
	// standing for extended slot Reg; NoCC only writes the register
	// (nil for the hardwired zero), for when the flags are provably
	// never observed.
	Op, NoCC OpFunc
	// Kind is the lazy cc kind Op records (never zero).
	Kind uint8
	Reg  int64
}

func seqSteps(n Node) [][]Node {
	if s, ok := UnwrapSeq(n).(Seq); ok {
		return s.Steps
	}
	return [][]Node{{n}}
}

// LowerCC lowers the one-step semantics "R[d] := a op b, X :=
// cc_…(…)" over register and constant operands a and b, where X is an
// extended slot and the builtin's operands are a and b (cc_logic's,
// the written value).  ok is false for any other semantics, the other
// order of the two included.
func LowerCC(sem Node, env CompileEnv) (p CCPair, ok bool) {
	steps := seqSteps(sem)
	if len(steps) != 1 || len(steps[0]) != 2 {
		return p, false
	}
	val, ok1 := UnwrapSeq(steps[0][0]).(Assign)
	cc, ok2 := UnwrapSeq(steps[0][1]).(Assign)
	if !ok1 || !ok2 {
		return p, false
	}
	ap, ok := UnwrapSeq(cc.RHS).(Apply)
	if !ok {
		return p, false
	}
	fn, args := Spine(ap)
	id, _ := fn.(Ident)
	kind, logic := ccKinds[id.Name], id.Name == "cc_logic"
	c := newCompiler(env)
	if kind == ccNone || c.l == nil {
		return p, false
	}
	c.direct = true
	dst, okX := c.regRef(cc.LHS)
	d, okD := c.regRef(val.LHS)
	x, err := c.expr(val.RHS)
	if !okX || !okD || err != nil || x.bin == nil || !extended(dst) || extended(d) {
		return p, false
	}
	if logic {
		if len(args) != 1 || args[0].String() != val.RHS.String() {
			return p, false
		}
	} else {
		if len(args) != 2 {
			return p, false
		}
		a, errA := c.expr(args[0])
		b, errB := c.expr(args[1])
		if errA != nil || errB != nil || !sameLeaf(a, x.bin.a) || !sameLeaf(b, x.bin.b) {
			return p, false
		}
	}
	var plain []stmtFn
	c.regWrite(d, x, &plain) // nothing for the hardwired zero
	p = CCPair{Op: ccOp(kind, logic, dst, d, c.l.IsZero(d), x.bin), Kind: kind, Reg: int64(dst)}
	if len(plain) == 1 {
		p.NoCC = plain[0]
	}
	return p, true
}

// sameLeaf reports whether two leaves are the same constant or the
// same register.
func sameLeaf(a, b cexpr) bool {
	if a.isConst || b.isConst {
		return a.isConst && b.isConst && a.val == b.val
	}
	return a.isReg && b.isReg && a.slot == b.slot
}

// ccOp writes a op b to R[d] (unless d is the hardwired zero) and
// records the flags' operands: a and b, or for a logic result r the
// pair (r, 0).
func ccOp(kind uint8, logic bool, dst, d int, zero bool, x *binExpr) OpFunc {
	if kind == ccKSub && !logic && x.op == "-" && x.a.isReg {
		a := x.a.slot
		if x.b.isConst {
			k := uint32(x.b.val)
			return func(ctx *Ctx) error {
				v := ctx.r[a]
				ctx.cc = ccRecord{ccKSub, dst, v, k}
				if !zero {
					ctx.r[d] = v - k
				}
				return nil
			}
		}
		b := x.b.slot
		return func(ctx *Ctx) error {
			v, w := ctx.r[a], ctx.r[b]
			ctx.cc = ccRecord{ccKSub, dst, v, w}
			if !zero {
				ctx.r[d] = v - w
			}
			return nil
		}
	}
	f, xa, xb := x.f, x.a, x.b
	return func(ctx *Ctx) error {
		a, b := xa.leaf(ctx), xb.leaf(ctx)
		r := f(a, b)
		ctx.cc = ccRecord{kind, dst, uint32(a), uint32(b)}
		if logic {
			ctx.cc.a, ctx.cc.b = uint32(r), 0
		}
		if !zero {
			ctx.r[d] = uint32(r)
		}
		return nil
	}
}

// Xfer is a control transfer, or an instruction that annuls its
// successor, lowered for the routine tier.  The emulator links it to
// block indices and runs the delay slot.
type Xfer struct {
	// Cond decides the transfer; nil means always taken.  It cannot
	// fail: the caller lowers only transfers whose semantics cannot
	// fault (spawn's effects).
	Cond func(*Ctx) bool
	// Target is the static target; Dyn, when non-nil, computes it —
	// as R[DynReg] + Target when DynReg is not -1, the common shape.
	Target uint32
	Dyn    func(*Ctx) uint32
	DynReg int32
	// Link, when not -1, is the instruction's one register write (a
	// call's return address): R[Link] := LinkVal, after Cond and Dyn
	// have read their inputs.
	Link    int32
	LinkVal uint32
	// Delayed transfers overlap one delay slot.  AnnulTaken annuls the
	// slot when the transfer is taken, AnnulUntaken when it is not.
	Delayed                  bool
	AnnulTaken, AnnulUntaken bool
}

// LowerXfer lowers the control transfer at pc.  cc and ccReg name the
// lazy cc kind the branch's block records last (0: none known), so a
// condition test over that register fuses into a direct predicate on
// the recorded operands.
func LowerXfer(sem Node, env CompileEnv, pc uint32, cc uint8, ccReg int64) (Xfer, error) {
	c := newCompiler(env)
	if c.l == nil {
		return Xfer{}, &CompileError{sem, "no register layout"}
	}
	// Direct mode keeps the expression shapes the target and the
	// condition fuse; a transfer lowers no assignment through it.
	c.direct, c.pcKnown, c.pcVal = true, true, uint64(pc)
	w := &xferWalk{c: c, sideStep: -1, temps: map[string]tempDef{}, x: Xfer{Link: -1, DynReg: -1}}
	for s, step := range seqSteps(sem) {
		for _, op := range step {
			if err := w.stmt(op, s, armNone); err != nil {
				return Xfer{}, err
			}
		}
	}
	x := w.x
	switch {
	case w.pcVal == nil && x.AnnulTaken && w.cond == nil:
		// Annuls its successor without transferring: skip it.
		x.Target = pc + 8
		return x, nil
	case w.pcVal == nil:
		return x, &CompileError{sem, "no pc assignment"}
	case x.AnnulTaken && w.cond != nil, x.AnnulUntaken && w.cond == nil,
		(x.AnnulTaken || x.AnnulUntaken) && w.pcStep == 0:
		return x, &CompileError{sem, "unsupported annul shape"}
	}
	x.Delayed = w.pcStep > 0
	tgt, tstep := w.resolve(w.pcVal, w.pcStep)
	c.flags &^= FlagExtended
	t, err := c.expr(tgt)
	switch {
	case err != nil:
		return x, err
	case t.isConst:
		x.Target = uint32(t.val)
	default:
		if w.sideStep >= 0 && tstep > w.sideStep {
			return x, &CompileError{sem, "target reads state written earlier"}
		}
		// A lazy cc record may stand for an extended slot.
		if !t.safe || c.flags&FlagExtended != 0 || x.AnnulTaken {
			return x, &CompileError{tgt, "computed target shape"}
		}
		x.Dyn = func(ctx *Ctx) uint32 { v, _ := t.fn(ctx); return uint32(v) }
		if t.isReg {
			x.DynReg = int32(t.slot)
		} else if b, ok := baseOff(t); ok && b.b.isConst {
			x.DynReg, x.Target = int32(b.a.slot), uint32(b.b.val)
		}
	}
	if w.cond != nil {
		if x.Link >= 0 {
			return x, &CompileError{sem, "conditional transfer with side effects"}
		}
		cond, _ := w.resolve(w.cond, w.condStep)
		if x.Cond, err = c.pred(cond, cc, ccReg); err != nil {
			return x, err
		}
	}
	return x, nil
}

// The arms of a transfer's guard a statement sits in.
const (
	armNone = iota // unguarded
	armThen        // the guarded arm that transfers
	armElse        // the other arm: may only annul
)

type tempDef struct {
	n    Node
	step int
}

// xferWalk decomposes a transfer's statements into its guard, pc
// assignment, annulment and register side effects.
type xferWalk struct {
	c        *compiler
	x        Xfer
	pcVal    Node
	pcStep   int
	cond     Node
	condStep int
	sideStep int
	temps    map[string]tempDef
}

// resolve substitutes a temporary by its definition, returning the
// step whose state the value reads.
func (w *xferWalk) resolve(n Node, step int) (Node, int) {
	if id, ok := UnwrapSeq(n).(Ident); ok {
		if t, ok := w.temps[id.Name]; ok {
			return t.n, t.step
		}
	}
	return n, step
}

func (w *xferWalk) stmt(n Node, step, in int) error {
	switch x := UnwrapSeq(n).(type) {
	case Seq:
		for _, st := range x.Steps {
			for _, op := range st {
				if err := w.stmt(op, step, in); err != nil {
					return err
				}
			}
		}
		return nil
	case Ident:
		if x.Name == "annul" {
			w.x.AnnulUntaken = w.x.AnnulUntaken || in == armElse
			w.x.AnnulTaken = w.x.AnnulTaken || in != armElse
			return nil
		}
	case Cond:
		c, err := w.c.expr(x.C)
		if err != nil {
			return err
		}
		if c.isConst {
			if c.val != 0 {
				return w.stmt(x.T, step, in)
			}
			if x.F != nil {
				return w.stmt(x.F, step, in)
			}
			return nil
		}
		if in != armNone || w.cond != nil {
			break
		}
		w.cond, w.condStep = x.C, step
		if err := w.stmt(x.T, step, armThen); err != nil {
			return err
		}
		if x.F != nil {
			return w.stmt(x.F, step, armElse)
		}
		return nil
	case Assign:
		if id, ok := UnwrapSeq(x.LHS).(Ident); ok && id.Name == "pc" {
			if w.pcVal != nil || in == armElse {
				break
			}
			if in == armNone && w.cond != nil {
				break
			}
			w.pcVal, w.pcStep = x.RHS, step
			return nil
		}
		if in != armNone {
			break
		}
		if id, ok := UnwrapSeq(x.LHS).(Ident); ok {
			if _, _, isReg := w.c.env.RegAlias(id.Name); !isReg {
				if _, isField := w.c.env.Field(id.Name); isField {
					break
				}
				w.temps[id.Name] = tempDef{x.RHS, step}
				return nil
			}
		}
		d, ok := w.c.regRef(x.LHS)
		v, vok := w.c.expr(x.RHS)
		if !ok || extended(d) || vok != nil || !v.isConst || w.sideStep >= 0 {
			break // one constant register write: the link
		}
		w.sideStep = step
		if !w.c.l.IsZero(d) {
			w.x.Link, w.x.LinkVal = int32(d), uint32(v.val)
		}
		return nil
	}
	return &CompileError{n, "unsupported statement in a control transfer"}
}

// pred lowers a branch condition.  A condition test applied to the
// register the block's last cc record stands for becomes the fused
// predicate for (cc builtin, test); an equality over two leaves is one
// comparison; anything else evaluates through the compiler, flushing
// the lazy flags first when it reads an extended slot.
func (c *compiler) pred(n Node, cc uint8, ccReg int64) (func(*Ctx) bool, error) {
	if x, ok := UnwrapSeq(n).(Apply); ok && cc != ccNone {
		fn, args := Spine(x)
		if sym, ok := fn.(Sym); ok && len(args) == 1 {
			if s, ok := c.regRef(args[0]); ok && int64(s) == ccReg {
				if p := fusedPred(cc, sym.Name); p != nil {
					return p, nil
				}
			}
		}
	}
	c.flags &^= FlagExtended
	e, err := c.expr(n)
	if err != nil {
		return nil, err
	}
	ext := c.flags&FlagExtended != 0
	if b := e.bin; b != nil && !ext && (b.op == "==" || b.op == "!=") {
		eq, xa, xb := b.op == "==", b.a, b.b
		return func(ctx *Ctx) bool { return (xa.leaf(ctx) == xb.leaf(ctx)) == eq }, nil
	}
	return func(ctx *Ctx) bool {
		if ext {
			ctx.FlushCC()
		}
		v, _ := e.eval(ctx)
		return v != 0
	}, nil
}

// fusedPred returns a direct predicate over the lazily recorded cc
// operands, or nil when the (builtin, test) pair is not fused (the
// condition then reads the flushed register).  The tests are rtl's
// own condition symbols over cc_sub(a, b); the sign and overflow tests
// are left to the flushed flags.
func fusedPred(kind uint8, test string) func(*Ctx) bool {
	if kind != ccKSub {
		return nil
	}
	switch test {
	case "ne":
		return func(ctx *Ctx) bool { return ctx.cc.a != ctx.cc.b }
	case "e":
		return func(ctx *Ctx) bool { return ctx.cc.a == ctx.cc.b }
	case "g":
		return func(ctx *Ctx) bool { return int32(ctx.cc.a) > int32(ctx.cc.b) }
	case "le":
		return func(ctx *Ctx) bool { return int32(ctx.cc.a) <= int32(ctx.cc.b) }
	case "ge":
		return func(ctx *Ctx) bool { return int32(ctx.cc.a) >= int32(ctx.cc.b) }
	case "l":
		return func(ctx *Ctx) bool { return int32(ctx.cc.a) < int32(ctx.cc.b) }
	case "gu":
		return func(ctx *Ctx) bool { return ctx.cc.a > ctx.cc.b }
	case "leu":
		return func(ctx *Ctx) bool { return ctx.cc.a <= ctx.cc.b }
	case "cc":
		return func(ctx *Ctx) bool { return ctx.cc.a >= ctx.cc.b }
	case "cs":
		return func(ctx *Ctx) bool { return ctx.cc.a < ctx.cc.b }
	}
	return nil
}
