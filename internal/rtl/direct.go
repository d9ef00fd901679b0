package rtl

// Direct-mode compilation: the one immediate-commit lowering, which
// the emulator's chained tier runs for hot instructions and its
// routine tier for every body word it can.  A normal Prog buffers
// register, memory and pc writes and commits them after each parallel
// step; that pending-write machinery (append, commit loop, interface
// dispatch) is the single largest per-instruction cost of translated
// code.  CompileDirect proves, per step, that committing each write
// immediately — in op order — is observationally equivalent to the
// buffered discipline, and then lowers assignments to immediate
// writes: a register write of an operator over register and constant
// operands, or of a load at R[a] + (k | R[b]), and a store of a
// register there, are one closure each.  The result is a Direct: one
// self-contained op list, which the emulator runs inline with no
// per-program call and no pending-write traffic at all.  Given the
// instruction's address, CompileDirect folds pc to it.
//
// Equivalence argument.  A buffered step runs E1..En C1..Cn (Ei =
// evaluation of op i plus its immediate effects — temporaries, annul,
// trap, window specials; Ci = commit of op i's buffered writes);
// direct mode runs E1 C1 .. En Cn.  The reorder is unobservable when,
// within a step:
//
//  1. no op reads a location (register, memory, pc) written by an
//     earlier op, so every read sees pre-step state in both orders;
//  2. once any op has committed a write, no later op may fail during
//     evaluation (memory read, division) — a buffered step surfaces
//     such an error before any commit;
//  3. trap and register-window specials, which read and write broad
//     machine state during evaluation, stand alone in their step.
//
// Writes within one op (evaluate RHS, then commit) already happen in
// that order in both modes, commits keep their relative order, and
// step boundaries are full barriers either way, so the analysis
// resets per step.  Anything it cannot prove makes CompileDirect
// fail and the caller keeps the buffered program: the fallback is the
// common, always-correct path.  The compiler reports reads, writes
// and may-fail points as it lowers — after constant folding, so an
// immediate-form operand contributes no register read and a folded
// guard hides its dead arm.

// Effect flags summarizing a compiled program, recorded during
// lowering in both modes.  The emulator uses them to pick a reduced
// pipeline-advance sequence for instructions that provably do not
// transfer control, annul, or trap.
const (
	FlagPC       uint8 = 1 << iota // may assign pc
	FlagAnnul                      // may annul the delay slot
	FlagTrap                       // may raise a trap
	FlagSpecial                    // register-window special operation
	FlagMemWrite                   // may write memory
	// FlagExtended: may read or write an extended integer slot
	// (32..34), the slots lazy condition codes stand for.
	FlagExtended
	// FlagPCRead: reads pc at run time.  A program compiled at a known
	// address folds its pc reads instead.
	FlagPCRead
)

// Direct is a direct-mode program: one op list, run in order against
// a bound Ctx (Ctx.Bind), that commits each write as it is made.  The
// list is self-contained: a program with temporaries starts with an op
// that resets them.  The compile-time analysis guarantees the
// observable behaviour matches Run of the buffered form exactly,
// including which error surfaces first.
type Direct struct {
	ops   []OpFunc
	flags uint8
}

// Ops returns the program's op list.
func (d *Direct) Ops() []OpFunc { return d.ops }

// Flags reports the program's effect summary.
func (d *Direct) Flags() uint8 { return d.flags }

// Run runs the op list against ctx's binding.
func (d *Direct) Run(ctx *Ctx) error {
	for _, op := range d.ops {
		if err := op(ctx); err != nil {
			return err
		}
	}
	return nil
}

// CompileDirect lowers n like Compile but with immediate write
// commits.  at, when not nil, is the instruction's address: pc reads
// fold to it.  It fails — with a CompileError, like any other
// uncompilable construct — when the commit reorder cannot be proven
// unobservable; callers fall back to the buffered Compile form.
func CompileDirect(n Node, env CompileEnv, at *uint64) (*Direct, error) {
	c := newCompiler(env)
	if at != nil {
		c.pcKnown, c.pcVal = true, *at
	}
	p, err := c.program(n, true)
	if err != nil {
		return nil, err
	}
	d := &Direct{flags: p.flags}
	if k := p.nTemps; k > 0 {
		d.ops = append(d.ops, func(ctx *Ctx) error { ctx.reset(k); return nil })
	}
	for _, step := range p.steps {
		d.ops = append(d.ops, step...)
	}
	return d, nil
}

// directAnalysis carries the per-step proof state for CompileDirect.
// The zero value starts a step with nothing written.
type directAnalysis struct {
	wReg      slotSet // register slots written
	wMem      bool
	wPC       bool
	committed bool // some state write has been issued this step
	poisoned  bool // trap/special seen: nothing may follow in-step
	failed    bool

	// permuted marks a retry attempt lowering the step's ops in a
	// non-program order (see lowerStep).  The ops of a parallel step
	// commute only if distinct serializations are indistinguishable,
	// which needs two conditions beyond the usual rules: no two ops
	// write the same location (the last commit would win, and order is
	// no longer program order), and no op can fail at run time (an
	// error would surface in attempt order, not program order).  Reads
	// of a constant register cannot fail: they are slot reads.
	permuted bool
}

func (a *directAnalysis) resetStep() {
	a.wReg = slotSet{}
	a.wMem, a.wPC, a.committed, a.poisoned = false, false, false, false
	a.permuted, a.failed = false, false
}

// gate is the common prologue of every note: once poisoned (a
// trap/special ran), any further activity in the step is unprovable.
func (a *directAnalysis) gate() bool {
	if a == nil || a.failed {
		return false
	}
	if a.poisoned {
		a.failed = true
		return false
	}
	return true
}

func (a *directAnalysis) regRead(s int) {
	if !a.gate() {
		return
	}
	if a.wReg.has(s) {
		a.failed = true
	}
}

func (a *directAnalysis) memRead() {
	if !a.gate() {
		return
	}
	// Memory reads can fault (rule 2) and may alias any earlier
	// memory write (rule 1); a fault is also an error whose order a
	// permuted serialization would not preserve.
	if a.committed || a.wMem || a.permuted {
		a.failed = true
	}
}

func (a *directAnalysis) pcRead() {
	if !a.gate() {
		return
	}
	if a.wPC {
		a.failed = true
	}
}

// mayErr marks an evaluation-time failure point (division, missing
// else arm): fatal once anything has committed, and fatal outright
// under permutation (error order must stay program order).
func (a *directAnalysis) mayErr() {
	if !a.gate() {
		return
	}
	if a.committed || a.permuted {
		a.failed = true
	}
}

func (a *directAnalysis) regWrite(s int) {
	if !a.gate() {
		return
	}
	if a.permuted && a.wReg.has(s) {
		a.failed = true // reordered write-after-write: wrong last writer
		return
	}
	a.wReg.add(s)
	a.committed = true
}

func (a *directAnalysis) memWrite() {
	if !a.gate() {
		return
	}
	if a.permuted {
		// Stores may alias each other and can fail at run time;
		// neither ordering effect survives a reordered step.
		a.failed = true
		return
	}
	a.wMem = true
	a.committed = true
}

func (a *directAnalysis) pcWrite() {
	if !a.gate() {
		return
	}
	if a.permuted && a.wPC {
		a.failed = true
		return
	}
	a.wPC = true
	a.committed = true
}

// exclusive admits a trap or register-window special only as the
// step's sole operation (rule 3): it must see an untouched step and
// poisons the rest of it.
func (a *directAnalysis) exclusive() {
	if !a.gate() {
		return
	}
	if a.committed || a.wMem || a.wPC || a.wReg != (slotSet{}) {
		a.failed = true
		return
	}
	a.poisoned = true
}
