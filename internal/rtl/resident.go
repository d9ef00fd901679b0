// Residency lowering: the emulator's routine tier executes whole
// routines with the register file and the integer condition codes
// held in an REnv instead of the CPU.  This file lowers one
// instruction's spawn semantics against that environment, through the
// same compiler that serves the translation cache: LowerBody for an
// instruction that falls through, LowerXfer for a control transfer.
// Composing the lowered instructions into a routine program (extent,
// CFG, liveness, blocks, linking) is the emulator's business.
//
// The instruction's address is known at lowering time, so pc folds to
// a constant and every pc-relative target and link value is a
// constant too.  A handful of statement shapes lower to one closure
// each, because they are most of what programs execute:
//
//   - R[d] := const | R[a] | R[a] op (const | R[b]), where op is one
//     of the operators +, -, &, |, ^ or the builtins shl, shr, sar
//     (other low-32-bit-exact operators through one call);
//   - R[d] := g(R[a]) for a one-argument builtin g (the float
//     conversions), R and F alike, since both files live in REnv.V;
//   - loads and stores whose address is R[a] + (const | R[b]);
//   - a register write paired with X := cc_add/cc_sub/cc_logic(…),
//     which records the operands lazily instead of computing X;
//   - winsave/winrestore, through ShiftWindow.
//
// Every other statement runs the instruction's compiled program over
// REnv.V, the same register array and slots every compiled tier uses:
// memory and traps go through the RBridge, so behaviour and error
// strings are the interpreter's.
package rtl

import "fmt"

// RWindow is one saved register window (locals + ins).  The emulator's
// window stack aliases this type, so the routine tier and the other
// engines push and pop the same representation.
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

// RBridge is the slow-path escape hatch a routine program calls for
// memory and traps.  The emulator's cpuEnv supplies it, so error
// strings and write-watch side effects are bit-identical to the
// interpreter's.
type RBridge interface {
	ReadMem(addr uint64, width int) (uint64, error)
	WriteMem(addr uint64, width int, v uint64) error
	// RTrap performs a software trap against the routine
	// environment's registers (not the CPU's: the register file
	// lives in e while the routine runs).
	RTrap(e *REnv, code uint64) error
}

// Ints is the current window's view of the integer registers.
func (e *REnv) Ints() *[32]uint32 { return (*[32]uint32)(e.V[:32]) }

// Lazy condition-code kinds: the builtin a record stands for.  A
// cc_logic(r) record is kept as cc_sub(r, 0), which sets the same
// flags, so it fuses like a compare with zero.
const (
	ccNone = iota
	ccKAdd
	ccKSub
)

var ccKinds = map[string]uint8{"cc_add": ccKAdd, "cc_sub": ccKSub, "cc_logic": ccKSub}

// Stop kinds a routine program reports through REnv.StopKind.
const (
	StopNone = iota
	// StopFault: an instruction faulted; StopErr holds the cause and
	// the faulting instruction did not retire.
	StopFault
	// StopHalt: a trap halted the machine (Halted/ExitCode set); the
	// trap instruction retired.
	StopHalt
	// StopGen: a store invalidated the translation generation
	// (self-modifying code); the store retired, the routine must
	// deopt.
	StopGen
)

// Terminator return sentinels.  A terminator returns the next block
// index (>= 0), or:
const (
	// RTermExit: control left the routine; PC/NPC/Insts are
	// finalized and the runner may re-enter another routine at PC.
	RTermExit int32 = -1
	// RTermStop: execution stopped; PC/NPC/Insts and the Stop*
	// fields are finalized.
	RTermStop int32 = -2
)

// REnv is the routine tier's execution environment: the architected
// state held privately while a routine program runs.  The runner
// fills it from the CPU at entry and spills it back at exit, calls,
// traps, and deopt points.
type REnv struct {
	// V holds the registers in the description's layout: the
	// integer file at 0..34 (32..34 are the extended slots), the float
	// file from FloatSlot.
	V Regs

	PC, NPC uint32
	Insts   uint64
	Annuls  uint64

	Windows  []RWindow
	Halted   bool
	ExitCode uint32

	// Lazy condition codes: the builtin kind and operands of the most
	// recent cc-recording instruction, and the extended slot it
	// stands for.  That slot is stale while ccK != ccNone; FlushCC
	// materializes it.
	ccK      uint8
	ccDst    int64
	ccA, ccB uint32

	// Stop protocol (see Stop* constants).
	StopKind int
	StopErr  error
	StopPC   uint32

	Bridge RBridge

	// Gen is the translation generation the routine was entered
	// under; *GenP is the live counter.  A mismatch after a store
	// means self-modifying code.
	Gen  uint64
	GenP *uint64

	ctx Ctx
}

// FlushCC materializes the lazy condition codes.  The recorded
// operands are preserved so an already-fused branch after a flush
// still sees them.
func (e *REnv) FlushCC() {
	var v uint64
	switch e.ccK {
	case ccNone:
		return
	case ccKAdd:
		v = ccAdd(e.ccA, e.ccB)
	default:
		v = ccSub(e.ccA, e.ccB)
	}
	e.V[e.ccDst] = uint32(v)
	e.ccK = ccNone
}

// ResetCC clears the lazy condition-code state (the register file is
// authoritative) and binds the environment's compiled-program scratch
// state to V; the runner calls it when filling the environment.
func (e *REnv) ResetCC() {
	e.ccK = ccNone
	e.ctx.Bind(resHost{e}, &e.V)
}

// resHost is the Host view of an REnv.  pc folds at lowering and
// LowerXfer lowers control transfers itself, so PC, SetPC and Annul
// are never reached.
type resHost struct{ e *REnv }

func (m resHost) PC() uint64                               { return uint64(m.e.PC) }
func (resHost) SetPC(uint64, bool)                         {}
func (resHost) Annul()                                     {}
func (m resHost) Trap(code uint64) error                   { return m.e.Bridge.RTrap(m.e, code) }
func (m resHost) ReadMem(a uint64, w int) (uint64, error)  { return m.e.Bridge.ReadMem(a, w) }
func (m resHost) WriteMem(a uint64, w int, v uint64) error { return m.e.Bridge.WriteMem(a, w, v) }
func (m resHost) Special(op string, args []uint64) error {
	return WindowSpecial(m.e.Ints(), &m.e.Windows, op, args)
}

// ROp is one lowered instruction.  It returns true to stop, with
// StopKind/StopErr set; the runner finalizes PC/NPC/Insts from the
// op's position.
type ROp func(*REnv) bool

// RTerm is a block terminator.  It returns the next block index or a
// sentinel; on RTermExit and RTermStop it has finalized PC, NPC, and
// the instruction/annul counters itself.
type RTerm func(*REnv) int32

func nopROp(*REnv) bool { return false }

func stopFault(e *REnv, err error) bool {
	e.StopKind = StopFault
	e.StopErr = err
	return true
}

// genCheck returns true (stop) when a store invalidated the text
// generation.
func genCheck(e *REnv) bool {
	if e.Gen != *e.GenP {
		e.StopKind = StopGen
		return true
	}
	return false
}

// Body is a non-transfer instruction lowered for the routine tier.
type Body struct {
	Op ROp
	// CC is the lazy cc kind Op records (0: none), standing for
	// integer register CCReg; NoCC is Op without the record, for when
	// the flags are provably never observed.
	CC    uint8
	CCReg int64
	NoCC  ROp
	// AtPC marks a lowering that folded the instruction's address.
	AtPC bool
}

// Xfer is a control transfer, or an instruction that annuls its
// successor, lowered for the routine tier.  The emulator links it to
// block indices and runs the delay slot.
type Xfer struct {
	// Cond decides the transfer; nil means always taken.  It cannot
	// fail: the caller lowers only transfers whose semantics cannot
	// fault (spawn's effects).
	Cond func(*REnv) bool
	// Target is the static target; Dyn, when non-nil, computes it —
	// as V[DynReg] + Target when DynReg is not -1, the common shape.
	Target uint32
	Dyn    func(*REnv) uint32
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

// operand is a resident value: a constant, or a register held in
// REnv.V.  wide marks a constant with bits above the low 32,
// which only truncating uses (register writes, addresses) may take.
type operand struct {
	imm, wide bool
	k         uint32
	r         uint32
}

func (o operand) val(e *REnv) uint32 {
	if o.imm {
		return o.k
	}
	return e.V[o.r]
}

// aluFn returns operator or builtin op over 32-bit operands when the
// low 32 bits of its result depend only on theirs, so a resident
// register may stand for the operand; nil otherwise.
func aluFn(op string) func(a, b uint32) uint32 {
	var f func(a, b uint64) uint64
	switch op {
	case "+", "-", "*", "&", "|", "^":
		f = binOps[op]
	case "shl", "shr", "sar", "umul", "smul", "fadd", "fsub", "fmul", "fdiv":
		f = builtins2[op]
	default:
		return nil
	}
	return func(a, b uint32) uint32 { return uint32(f(uint64(a), uint64(b))) }
}

// alu is a matched "a op b".
type alu struct {
	op   string
	f    func(a, b uint32) uint32
	a, b operand
}

func (x alu) eval(e *REnv) uint32 { return x.f(x.a.val(e), x.b.val(e)) }

// lowerer lowers one instruction; its compiler knows the address.
type lowerer struct{ c *compiler }

// reg resolves a register reference (R[i] or an alias) with a
// field-computable index to its slot.
func (lw *lowerer) reg(n Node) (int, bool) {
	switch x := UnwrapSeq(n).(type) {
	case Ident:
		if file, idx, ok := lw.c.env.RegAlias(x.Name); ok {
			return lw.c.l.Slot(file, idx)
		}
	case Index:
		base, isID := x.Base.(Ident)
		if !isID || base.Name == "M" || !lw.c.env.IsRegFile(base.Name) {
			return 0, false
		}
		i, err := lw.c.expr(x.Elem)
		if err != nil || !i.isConst {
			return 0, false
		}
		return lw.c.l.Slot(base.Name, int64(i.val))
	}
	return 0, false
}

// resident reports whether a closure may address slot s directly: an
// integer register of the window, or a float register.  The extended
// slots stay with the compiled program, which flushes lazy condition
// codes before touching them.
func resident(s int) bool { return s < 32 || s >= FloatSlot }

// dest resolves an assignment target to a resident register; zero
// reports the hardwired zero, whose writes are dropped.
func (lw *lowerer) dest(n Node) (d uint32, zero, ok bool) {
	s, ok := lw.reg(n)
	if !ok || !resident(s) {
		return 0, false, false
	}
	return uint32(s), lw.c.l.IsZero(s), true
}

func (lw *lowerer) operand(n Node) (operand, bool) {
	v, err := lw.c.expr(n)
	switch {
	case err != nil:
	case v.isConst:
		return operand{imm: true, wide: v.val>>32 != 0, k: uint32(v.val)}, true
	case v.isReg:
		return operand{r: uint32(v.slot)}, resident(v.slot)
	}
	return operand{}, false
}

// alu matches "a op b" over resident operands.
func (lw *lowerer) alu(n Node) (alu, bool) {
	var x alu
	var l, r Node
	switch t := UnwrapSeq(n).(type) {
	case Bin:
		x.op, l, r = t.Op, t.L, t.R
	case Apply:
		fn, args := spine(t)
		id, ok := fn.(Ident)
		if !ok || len(args) != 2 {
			return x, false
		}
		x.op, l, r = id.Name, args[0], args[1]
	default:
		return x, false
	}
	if x.f = aluFn(x.op); x.f == nil {
		return x, false
	}
	var okA, okB bool
	x.a, okA = lw.operand(l)
	x.b, okB = lw.operand(r)
	return x, okA && okB
}

// unary matches a one-argument builtin applied to a resident
// register.
func (lw *lowerer) unary(n Node) (func(uint64) uint64, uint32, bool) {
	fn, args := spine(n)
	id, _ := fn.(Ident)
	if g := builtins1[id.Name]; g != nil && len(args) == 1 {
		if a, ok := lw.operand(args[0]); ok && !a.imm {
			return g, a.r, true
		}
	}
	return nil, 0, false
}

// address matches a memory reference M[R[a] + (const | R[b])]{w}.
func (lw *lowerer) address(n Node) (base uint32, off operand, w int, ok bool) {
	ix, isIx := UnwrapSeq(n).(Index)
	if !isIx {
		return 0, off, 0, false
	}
	if b, isID := ix.Base.(Ident); !isID || b.Name != "M" {
		return 0, off, 0, false
	}
	w, err := lw.c.width(ix)
	if err != nil {
		return 0, off, 0, false
	}
	if a, isALU := lw.alu(ix.Elem); isALU && a.op == "+" && !a.a.imm {
		return a.a.r, a.b, w, true
	}
	return 0, off, 0, false
}

// LowerBody lowers the semantics of the non-transfer instruction at
// pc.  env supplies the instruction's field values and the
// description's register model, whose layout places the registers in
// REnv.V.
func LowerBody(sem Node, env CompileEnv, pc uint32) (b Body, err error) {
	lw := newLowerer(env, pc)
	if lw.c.l == nil {
		return b, &CompileError{sem, "no register layout"}
	}
	defer func() { b.AtPC = lw.c.pcRead }()
	steps := seqSteps(sem)
	if len(steps) == 1 && len(steps[0]) == 1 {
		if op := lw.single(steps[0][0]); op != nil {
			return Body{Op: op}, nil
		}
	}
	if len(steps) == 1 && len(steps[0]) == 2 {
		if b, ok := lw.ccPair(steps[0]); ok {
			return b, nil
		}
	}
	b.Op, err = lw.general(sem)
	return b, err
}

// newLowerer returns a lowerer for the instruction at pc.  Its
// compiler has no temporaries until general needs them.
func newLowerer(env CompileEnv, pc uint32) *lowerer {
	return &lowerer{&compiler{env: env, l: env.Layout(), pcKnown: true, pcVal: uint64(pc)}}
}

func seqSteps(n Node) [][]Node {
	if s, ok := UnwrapSeq(n).(Seq); ok {
		return s.Steps
	}
	return [][]Node{{n}}
}

// single lowers a one-statement body to one closure, or returns nil.
func (lw *lowerer) single(n Node) ROp {
	switch x := UnwrapSeq(n).(type) {
	case Assign:
		if base, off, w, ok := lw.address(x.LHS); ok {
			v, ok := lw.operand(x.RHS)
			return store(base, off, w, v, ok)
		}
		d, zero, ok := lw.dest(x.LHS)
		if !ok {
			return nil
		}
		switch rhs := UnwrapSeq(x.RHS).(type) {
		case Bin, Apply: // compile only the operands, not the whole tree
			if g, a, ok := lw.unary(rhs); ok && !zero {
				return func(e *REnv) bool { e.V[d] = uint32(g(uint64(e.V[a]))); return false }
			}
			if a, ok := lw.alu(x.RHS); ok && a.a.imm && a.b.imm {
				return setOp(d, zero, operand{imm: true, k: a.f(a.a.k, a.b.k)})
			} else if ok {
				if zero {
					return nopROp
				}
				return aluOp(d, a)
			}
		default:
			if v, ok := lw.operand(x.RHS); ok {
				return setOp(d, zero, v)
			}
		}
		return lw.load(d, zero, x.RHS)
	case Apply:
		fn, args := spine(x)
		id, ok := fn.(Ident)
		if !ok {
			return nil
		}
		if (id.Name == "winsave" || id.Name == "winrestore") && len(args) == 2 {
			return lw.window(id.Name == "winsave", args)
		}
	}
	return nil
}

func setOp(d uint32, zero bool, v operand) ROp {
	switch {
	case zero:
		return nopROp
	case v.imm:
		k := v.k
		return func(e *REnv) bool { e.V[d] = k; return false }
	}
	s := v.r
	return func(e *REnv) bool { e.V[d] = e.V[s]; return false }
}

// aluOp is R[d] := a op b as one closure, with the operator inlined
// for a register left operand.
func aluOp(d uint32, x alu) ROp {
	if !x.a.imm {
		a := x.a.r
		if x.b.imm {
			k := x.b.k
			switch x.op {
			case "+":
				return func(e *REnv) bool { e.V[d] = e.V[a] + k; return false }
			case "-":
				return func(e *REnv) bool { e.V[d] = e.V[a] - k; return false }
			case "&":
				return func(e *REnv) bool { e.V[d] = e.V[a] & k; return false }
			case "|":
				return func(e *REnv) bool { e.V[d] = e.V[a] | k; return false }
			case "^":
				return func(e *REnv) bool { e.V[d] = e.V[a] ^ k; return false }
			case "shl":
				k &= 31
				return func(e *REnv) bool { e.V[d] = e.V[a] << k; return false }
			case "shr":
				k &= 31
				return func(e *REnv) bool { e.V[d] = e.V[a] >> k; return false }
			case "sar":
				k &= 31
				return func(e *REnv) bool { e.V[d] = uint32(int32(e.V[a]) >> k); return false }
			}
		}
		b := x.b.r
		switch x.op {
		case "+":
			return func(e *REnv) bool { e.V[d] = e.V[a] + e.V[b]; return false }
		case "|":
			return func(e *REnv) bool { e.V[d] = e.V[a] | e.V[b]; return false }
		case "^":
			return func(e *REnv) bool { e.V[d] = e.V[a] ^ e.V[b]; return false }
		}
	}
	return func(e *REnv) bool { e.V[d] = x.eval(e); return false }
}

// load lowers R[d] := M[ea]{w}, optionally extended by sexb/sexh.
func (lw *lowerer) load(d uint32, zero bool, rhs Node) ROp {
	var ext func(uint64) uint64
	if a, ok := UnwrapSeq(rhs).(Apply); ok {
		fn, args := spine(a)
		if id, isID := fn.(Ident); isID && len(args) == 1 && (id.Name == "sexb" || id.Name == "sexh") {
			ext, rhs = builtins1[id.Name], args[0]
		}
	}
	base, off, w, ok := lw.address(rhs)
	if !ok {
		return nil
	}
	if k := off.k; off.imm && ext == nil && !zero {
		return func(e *REnv) bool {
			v, err := e.Bridge.ReadMem(uint64(e.V[base]+k), w)
			if err != nil {
				return stopFault(e, err)
			}
			e.V[d] = uint32(v)
			return false
		}
	}
	return func(e *REnv) bool {
		v, err := e.Bridge.ReadMem(uint64(e.V[base]+off.val(e)), w)
		if err != nil {
			return stopFault(e, err)
		}
		if ext != nil {
			v = ext(v)
		}
		if !zero {
			e.V[d] = uint32(v)
		}
		return false
	}
}

// store lowers M[R[base] + off]{w} := v, with the self-modifying-code
// check.
func store(base uint32, off operand, w int, v operand, ok bool) ROp {
	if !ok || v.wide {
		return nil
	}
	if k, s := off.k, v.r; off.imm && !v.imm {
		return func(e *REnv) bool {
			if err := e.Bridge.WriteMem(uint64(e.V[base]+k), w, uint64(e.V[s])); err != nil {
				return stopFault(e, err)
			}
			return genCheck(e)
		}
	}
	return func(e *REnv) bool {
		if err := e.Bridge.WriteMem(uint64(e.V[base]+off.val(e)), w, uint64(v.val(e))); err != nil {
			return stopFault(e, err)
		}
		return genCheck(e)
	}
}

// window lowers winsave/winrestore(R[a] + off, rd).
func (lw *lowerer) window(save bool, args []Node) ROp {
	x, ok := lw.alu(args[0])
	rd, rdOK := lw.operand(args[1])
	if !ok || x.op != "+" || x.a.imm || !rdOK || !rd.imm {
		return nil
	}
	a, off, d := x.a.r, x.b, rd.k
	write := d != 0 && d < 32
	return func(e *REnv) bool {
		v := e.V[a] + off.val(e) // computed in the old window
		ShiftWindow(e.Ints(), &e.Windows, save)
		if write {
			e.V[d] = v
		}
		return false
	}
}

// ccPair lowers "R[d] := a op b, X := cc_…(…)": the register write
// plus a lazy record of the cc builtin's operands, standing for the
// extended slot X.  (The other order of the two goes the general way.)
func (lw *lowerer) ccPair(step []Node) (Body, bool) {
	val, ok := UnwrapSeq(step[0]).(Assign)
	cc, ok2 := UnwrapSeq(step[1]).(Assign)
	if !ok || !ok2 {
		return Body{}, false
	}
	ap, ok := UnwrapSeq(cc.RHS).(Apply)
	if !ok {
		return Body{}, false
	}
	fn, args := spine(ap)
	id, _ := fn.(Ident)
	kind, logic := ccKinds[id.Name], id.Name == "cc_logic"
	dst, ok := lw.reg(cc.LHS)
	d, zero, ok2 := lw.dest(val.LHS)
	x, ok3 := lw.alu(val.RHS)
	if kind == ccNone || !ok || !ok2 || !ok3 || resident(dst) {
		return Body{}, false
	}
	if logic {
		if len(args) != 1 || args[0].String() != val.RHS.String() {
			return Body{}, false
		}
	} else {
		if len(args) != 2 {
			return Body{}, false
		}
		a, okA := lw.operand(args[0])
		b, okB := lw.operand(args[1])
		if !okA || !okB || a != x.a || b != x.b {
			return Body{}, false
		}
	}
	plain := nopROp
	if !zero {
		plain = aluOp(d, x)
	}
	return Body{Op: ccOp(kind, logic, int64(dst), d, zero, x), CC: kind, CCReg: int64(dst), NoCC: plain}, true
}

// ccOp writes a op b to R[d] and records the flags lazily: the
// operands, or for a logic result r the pair (r, 0).
func ccOp(kind uint8, logic bool, dst int64, d uint32, zero bool, x alu) ROp {
	if kind == ccKSub && !logic && x.op == "-" && !x.a.imm && x.b.imm {
		a, k := x.a.r, x.b.k
		return func(e *REnv) bool {
			v := e.V[a]
			e.ccK, e.ccDst, e.ccA, e.ccB = ccKSub, dst, v, k
			if !zero {
				e.V[d] = v - k
			}
			return false
		}
	}
	f := x.f
	return func(e *REnv) bool {
		a, b := x.a.val(e), x.b.val(e)
		r := f(a, b)
		if logic {
			a, b = r, 0
		}
		e.ccK, e.ccDst, e.ccA, e.ccB = kind, dst, a, b
		if !zero {
			e.V[d] = r
		}
		return false
	}
}

// general runs the instruction's compiled program over the REnv.  A
// program that touches an extended slot sees (and overwrites) the
// materialized condition codes, not a stale slot behind a lazy record.
func (lw *lowerer) general(sem Node) (ROp, error) {
	lw.c.slots = map[string]int{}
	p, err := lw.c.program(sem, false)
	if err != nil {
		return nil, err
	}
	if p.flags&(FlagPC|FlagAnnul) != 0 {
		return nil, &CompileError{sem, "control transfer in a routine body"}
	}
	memw := p.flags&FlagMemWrite != 0
	ext := p.flags&FlagExtended != 0
	return func(e *REnv) bool {
		if ext {
			e.FlushCC()
		}
		if err := p.Run(&e.ctx); err != nil {
			return stopFault(e, err)
		}
		if e.Halted {
			e.StopKind = StopHalt
			return true
		}
		return memw && genCheck(e)
	}, nil
}

// LowerXfer lowers the control transfer at pc.  cc and ccReg name the
// lazy cc kind the branch's block records last (0: none known), so a
// condition test over that register fuses into a direct predicate on
// the recorded operands.
func LowerXfer(sem Node, env CompileEnv, pc uint32, cc uint8, ccReg int64) (Xfer, error) {
	lw := newLowerer(env, pc)
	if lw.c.l == nil {
		return Xfer{}, &CompileError{sem, "no register layout"}
	}
	w := &xferWalk{lw: lw, sideStep: -1, temps: map[string]tempDef{}, x: Xfer{Link: -1, DynReg: -1}}
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
	t, err := w.lw.c.expr(tgt)
	switch {
	case err != nil:
		return x, err
	case t.isConst:
		x.Target = uint32(t.val)
	default:
		if w.sideStep >= 0 && tstep > w.sideStep {
			return x, &CompileError{sem, "target reads state written earlier"}
		}
		if x.Dyn = w.lw.value(tgt); x.Dyn == nil || x.AnnulTaken {
			return x, &CompileError{tgt, "computed target shape"}
		}
		if a, ok := w.lw.alu(tgt); ok && a.op == "+" && !a.a.imm && a.b.imm {
			x.DynReg, x.Target = int32(a.a.r), a.b.k
		}
	}
	if w.cond != nil {
		if x.Link >= 0 {
			return x, &CompileError{sem, "conditional transfer with side effects"}
		}
		c, _ := w.resolve(w.cond, w.condStep)
		if x.Cond, err = w.lw.pred(c, cc, ccReg); err != nil {
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
	lw       *lowerer
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
		c, err := w.lw.c.expr(x.C)
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
			if _, _, isReg := w.lw.c.env.RegAlias(id.Name); !isReg {
				if _, isField := w.lw.c.env.Field(id.Name); isField {
					break
				}
				w.temps[id.Name] = tempDef{x.RHS, step}
				return nil
			}
		}
		d, zero, ok := w.lw.dest(x.LHS)
		v, vok := w.lw.c.expr(x.RHS)
		if !ok || vok != nil || !v.isConst || w.sideStep >= 0 {
			break // one constant register write: the link
		}
		w.sideStep = step
		if !zero {
			w.x.Link, w.x.LinkVal = int32(d), uint32(v.val)
		}
		return nil
	}
	return &CompileError{n, "unsupported statement in a control transfer"}
}

// value lowers a computed target: a resident operand or "a op b".
func (lw *lowerer) value(n Node) func(*REnv) uint32 {
	if v, ok := lw.operand(n); ok && !v.imm {
		r := v.r
		return func(e *REnv) uint32 { return e.V[r] }
	}
	if x, ok := lw.alu(n); ok {
		return x.eval
	}
	return nil
}

// pred lowers a branch condition.  A condition test applied to the
// register the block's last cc record stands for becomes the fused
// predicate for (cc builtin, test); an equality over resident operands
// is one comparison; anything else evaluates through the compiler.
func (lw *lowerer) pred(n Node, cc uint8, ccReg int64) (func(*REnv) bool, error) {
	switch x := UnwrapSeq(n).(type) {
	case Apply:
		fn, args := spine(x)
		if sym, ok := fn.(Sym); ok && len(args) == 1 && cc != ccNone {
			if s, ok := lw.reg(args[0]); ok && int64(s) == ccReg {
				if p := fusedPred(cc, sym.Name); p != nil {
					return p, nil
				}
			}
		}
	case Bin:
		if x.Op == "==" || x.Op == "!=" {
			a, okA := lw.operand(x.L)
			b, okB := lw.operand(x.R)
			if okA && okB && !a.wide && !b.wide {
				eq := x.Op == "=="
				return func(e *REnv) bool { return (a.val(e) == b.val(e)) == eq }, nil
			}
		}
	}
	// A condition that reads an extended slot, which a lazy cc record
	// may stand for, flushes first.
	lw.c.flags &^= FlagExtended
	c, err := lw.c.expr(n)
	ext := lw.c.flags&FlagExtended != 0
	return func(e *REnv) bool {
		if ext {
			e.FlushCC()
		}
		v, _ := c.eval(&e.ctx)
		return v != 0
	}, err
}

// fusedPred returns a direct predicate over the lazily recorded cc
// operands, or nil when the (builtin, test) pair is not fused (the
// condition then reads the flushed register).  The tests are rtl's
// own condition symbols over cc_sub(a, b); the sign and overflow tests
// are left to the flushed flags.
func fusedPred(kind uint8, test string) func(*REnv) bool {
	if kind != ccKSub {
		return nil
	}
	switch test {
	case "ne":
		return func(e *REnv) bool { return e.ccA != e.ccB }
	case "e":
		return func(e *REnv) bool { return e.ccA == e.ccB }
	case "g":
		return func(e *REnv) bool { return int32(e.ccA) > int32(e.ccB) }
	case "le":
		return func(e *REnv) bool { return int32(e.ccA) <= int32(e.ccB) }
	case "ge":
		return func(e *REnv) bool { return int32(e.ccA) >= int32(e.ccB) }
	case "l":
		return func(e *REnv) bool { return int32(e.ccA) < int32(e.ccB) }
	case "gu":
		return func(e *REnv) bool { return e.ccA > e.ccB }
	case "leu":
		return func(e *REnv) bool { return e.ccA <= e.ccB }
	case "cc":
		return func(e *REnv) bool { return e.ccA >= e.ccB }
	case "cs":
		return func(e *REnv) bool { return e.ccA < e.ccB }
	}
	return nil
}
