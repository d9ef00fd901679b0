// Routine-level compilation: the emulator's third tier.  Where
// compile.go lowers one instruction and direct.go one superblock,
// CompileRoutine consumes a whole routine's CFG plus liveness and
// emits a single flat program in which the SPARC register file and
// the integer condition codes live in an REnv the runner keeps in
// registers/cache across basic-block boundaries.  Architected state
// (the CPU struct) is touched only at routine entry and exit — the
// paper's §3 analyses (CFG + liveness) turned inward on the emulator
// itself.
//
// Condition codes are lazy: a subcc records its operands and kind
// instead of materializing NZVC into PSR; conditional branches fuse
// the comparison into a direct predicate on the recorded operands,
// and FlushCC materializes PSR only when it is actually observed
// (routine exit, addx/subx carry read, unfusable branch).  A cc def
// that liveness proves dead *and* that is locally re-defined before
// any fault-capable instruction is elided outright, so
// subcc-then-never-branched pays nothing.
//
// The compiled program is immutable and content-addressed by the
// caller, so one compilation is shared by every CPU executing the
// same text.
package rtl

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/telemetry"
)

// RWindow is one saved SPARC register window (locals + ins).  The
// emulator's window stack aliases this type so routine-compiled save/
// restore and the interpreter push and pop the same representation.
type RWindow struct {
	Locals, Ins [8]uint32
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

// Lazy condition-code kinds.
const (
	ccNone = iota
	ccKAdd
	ccKSub
	ccKLogic
)

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
	R   [32]uint32
	Y   uint32
	PSR uint32
	FSR uint32
	F   [32]uint32

	PC, NPC uint32
	Insts   uint64
	Annuls  uint64

	Windows  []RWindow
	Halted   bool
	ExitCode uint32

	// Lazy integer condition codes: kind + operands of the most
	// recent cc-setting instruction.  PSR is stale while ccK !=
	// ccNone; FlushCC materializes it.
	ccK      uint8
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
}

// FlushCC materializes the lazy condition codes into PSR.  The
// recorded operands are preserved so an already-fused branch after a
// flush still sees them.
func (e *REnv) FlushCC() {
	switch e.ccK {
	case ccKAdd:
		e.PSR = uint32(ccAdd(e.ccA, e.ccB))
	case ccKSub:
		e.PSR = uint32(ccSub(e.ccA, e.ccB))
	case ccKLogic:
		e.PSR = uint32(ccLogic(e.ccA))
	}
	e.ccK = ccNone
}

// ResetCC clears the lazy condition-code state (PSR is
// authoritative); the runner calls it when filling the environment.
func (e *REnv) ResetCC() { e.ccK = ccNone }

// ROp is one compiled body instruction.  It returns true to stop,
// with StopKind/StopErr set; the runner finalizes PC/NPC/Insts from
// the op's position.
type ROp func(*REnv) bool

// RTerm is a compiled block terminator.  It returns the next block
// index or a sentinel; on RTermExit and RTermStop it has finalized
// PC, NPC, and the instruction/annul counters itself.
type RTerm func(*REnv) int32

// RBlock is one compiled basic block of a routine program.
type RBlock struct {
	Base uint32
	Ops  []ROp
	Term RTerm
	// Cost bounds how many instructions the block can retire
	// (body + terminator + delay slot); the runner refuses entry
	// when the step budget cannot cover it.
	Cost uint64
}

// RoutineProg is a whole compiled routine: a flat block list plus an
// index from block base pc to block number.  It is immutable after
// compilation and safe to share across CPUs.
type RoutineProg struct {
	Entry  uint32
	Blocks []RBlock
	// Index maps every compiled (non-stub) block base to its index;
	// these are the pcs at which the routine tier may enter.
	Index map[uint32]int32
	// Stubs counts blocks the compiler refused (uncompilable head);
	// control into them exits to the lower tier.
	Stubs int
}

// slotStop finalizes a stop raised by a delay-slot instruction.
// During the slot the pipeline state is PC=slotpc, NPC=target (the
// transfer already wrote the delayed target).
func slotStop(e *REnv, slotpc, target uint32) int32 {
	switch e.StopKind {
	case StopFault:
		e.Insts++ // the transfer retired; the slot did not
		e.PC, e.NPC = slotpc, target
		e.StopPC = slotpc
	case StopHalt:
		e.Insts += 2
		e.PC, e.NPC = slotpc, target
	case StopGen:
		e.Insts += 2
		e.PC, e.NPC = target, target+4
	}
	return RTermStop
}

// rtarget is a link-resolved control-flow target: an in-program
// block index, or an exit at pc.
type rtarget struct {
	k  int32 // block index, or RTermExit
	pc uint32
}

func (t rtarget) enter(e *REnv) int32 {
	if t.k >= 0 {
		return t.k
	}
	e.PC, e.NPC = t.pc, t.pc+4
	return RTermExit
}

// operand is a pre-decoded op2: either a sign-extended immediate or
// a register index.
type operand struct {
	imm bool
	k   uint32
	rs2 uint32
}

func (o operand) val(e *REnv) uint32 {
	if o.imm {
		return o.k
	}
	return e.R[o.rs2]
}

// CompileError from routine lowering (reuses the compile.go type).
// A block whose head fails to lower becomes a stub instead of
// failing the whole routine; CompileRoutine errors only when the
// entry block itself is uncompilable.
var errEntryStub = fmt.Errorf("rtl: routine entry block not compilable")

type instAt struct {
	pc uint32
	in *machine.Inst
}

// Terminator descriptor kinds, materialized after the block index is
// known.
type termKind int

const (
	tkFall       termKind = iota // fall through to target
	tkFallExit                   // fall off the analyzed region
	tkUncond                     // ba/fba, slot executes
	tkAnnulTaken                 // ba,a / fba,a: slot annulled, to target
	tkAnnulSkip                  // bn,a / fbn,a: slot annulled, to pc+8
	tkCond                       // conditional branch
	tkCall                       // call (static target)
	tkJmpl                       // jmpl (indirect)
)

type termDesc struct {
	kind   termKind
	pc     uint32 // terminator instruction address
	target uint32 // static target / fallthrough pc
	annul  bool
	test   string // condition name for tkCond ("ne", "fge", ...)
	fp     bool
	slot   ROp
	slotPC uint32
	// jmpl operands
	rd, rs1 uint32
	op2     operand
}

type protoBlock struct {
	base uint32
	body []instAt
	term termDesc
	stub bool
}

// routineCompiler carries per-routine compile state.
type routineCompiler struct {
	inv map[uint32]*machine.Inst
	pl  *dataflow.PointLiveness
}

// CompileRoutine lowers the routine rooted at entry, described by g
// and analyzed by lv, to a RoutineProg.  lv may be nil (no elision).
func CompileRoutine(g *cfg.Graph, lv *dataflow.Liveness, entry uint32) (prog *RoutineProg, err error) {
	sp := telemetry.ActiveTracer().Begin("rtl.CompileRoutine", "rtl")
	start := time.Now()
	defer func() {
		telemetry.Default().Histogram("rtl.routine_compile_ns").Observe(uint64(time.Since(start)))
		sp.Arg("entry", fmt.Sprintf("%#x", entry))
		if prog != nil {
			sp.Arg("blocks", len(prog.Blocks))
		}
		if err != nil {
			sp.Arg("error", err.Error())
		}
		sp.End()
	}()
	rc := &routineCompiler{inv: make(map[uint32]*machine.Inst)}
	for _, b := range g.Blocks {
		for _, ci := range b.Insts {
			if ci.MI != nil && ci.MI.Valid() {
				rc.inv[ci.Addr] = ci.MI
			}
		}
	}
	if rc.inv[entry] == nil {
		return nil, fmt.Errorf("rtl: routine entry %#x not in graph", entry)
	}
	if lv != nil {
		rc.pl = lv.Points()
	}

	pcs := make([]uint32, 0, len(rc.inv))
	for pc := range rc.inv {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })

	leaders := map[uint32]bool{entry: true}
	for pc, in := range rc.inv {
		if isXfer(in) {
			leaders[pc+8] = true
			if t, ok := in.StaticTarget(pc); ok {
				leaders[t] = true
			}
		} else if isAnnulSkip(in) {
			leaders[pc+8] = true
		}
	}
	for _, pc := range pcs {
		if rc.inv[pc-4] == nil {
			leaders[pc] = true
		}
	}

	var protos []protoBlock
	for idx := 0; idx < len(pcs); {
		base := pcs[idx]
		if !leaders[base] {
			idx++
			continue
		}
		pb := rc.formBlock(base, leaders)
		protos = append(protos, pb)
		for idx < len(pcs) && (pcs[idx] < base+4 || !leaders[pcs[idx]]) {
			idx++
		}
	}

	prog = &RoutineProg{Entry: entry, Index: make(map[uint32]int32)}
	for i := range protos {
		pb := &protos[i]
		if pb.stub {
			prog.Stubs++
			continue
		}
		prog.Index[pb.base] = int32(len(prog.Blocks))
		prog.Blocks = append(prog.Blocks, RBlock{Base: pb.base})
	}
	if _, ok := prog.Index[entry]; !ok {
		return nil, errEntryStub
	}

	// Materialize blocks now that the index is known.
	bi := 0
	for i := range protos {
		pb := &protos[i]
		if pb.stub {
			continue
		}
		blk := &prog.Blocks[bi]
		bi++
		ops, ok := rc.compileBody(pb)
		if !ok {
			// Body failed late: demote to an immediate exit at the
			// block head (never executes any instruction).
			base := pb.base
			blk.Ops = nil
			blk.Term = func(e *REnv) int32 {
				e.PC, e.NPC = base, base+4
				return RTermExit
			}
			// A zero-cost self-exit would livelock the runner's
			// dispatch loop; cost 1 forces the budget check to pass
			// and the runner's no-progress guard to hand over.
			blk.Cost = 1
			delete(prog.Index, pb.base)
			prog.Stubs++
			continue
		}
		blk.Ops = ops
		blk.Term = rc.linkTerm(prog, pb)
		blk.Cost = uint64(len(ops)) + termCost(pb.term.kind)
	}
	return prog, nil
}

func termCost(k termKind) uint64 {
	switch k {
	case tkFall, tkFallExit:
		return 0
	case tkAnnulTaken, tkAnnulSkip:
		return 1
	default:
		return 2
	}
}

func isXfer(in *machine.Inst) bool { return in.DelaySlots() > 0 }

func isAnnulSkip(in *machine.Inst) bool {
	n := in.Name()
	return (n == "bn" || n == "fbn") && in.AnnulBit()
}

// formBlock scans forward from base collecting body instructions
// until a terminator or a leader boundary.
func (rc *routineCompiler) formBlock(base uint32, leaders map[uint32]bool) protoBlock {
	pb := protoBlock{base: base}
	pc := base
	for {
		in := rc.inv[pc]
		if in == nil {
			pb.term = termDesc{kind: tkFallExit, pc: pc, target: pc}
			return pb
		}
		if isXfer(in) || isAnnulSkip(in) {
			pb.term = rc.termFor(pc, in)
			if pb.term.kind == tkFall && pb.term.target == 0 {
				pb.stub = true
			}
			return pb
		}
		pb.body = append(pb.body, instAt{pc, in})
		pc += 4
		if leaders[pc] {
			pb.term = termDesc{kind: tkFall, pc: pc, target: pc}
			return pb
		}
	}
}

// termFor classifies a control-transfer (or annulling bn) into a
// terminator descriptor, compiling its delay slot when one executes.
// An unclassifiable transfer yields a stub marker (kind tkFall with
// target 0, caught by formBlock).
func (rc *routineCompiler) termFor(pc uint32, in *machine.Inst) termDesc {
	stub := termDesc{kind: tkFall, pc: pc, target: 0}
	name := in.Name()
	annul := in.AnnulBit()

	needSlot := func() (ROp, bool) {
		sin := rc.inv[pc+4]
		if sin == nil || isXfer(sin) || isAnnulSkip(sin) {
			return nil, false
		}
		// The slot runs after the branch decision, outside the body:
		// compile it with elision and fusion context disabled.
		op, ok := rc.bodyOp(pc+4, sin, false)
		return op, ok
	}

	switch {
	case name == "bn" || name == "fbn":
		// Only the annulled form reaches here.
		return termDesc{kind: tkAnnulSkip, pc: pc, target: pc + 8}

	case name == "ba" || name == "fba":
		t, ok := in.StaticTarget(pc)
		if !ok {
			return stub
		}
		if annul {
			return termDesc{kind: tkAnnulTaken, pc: pc, target: t}
		}
		slot, ok := needSlot()
		if !ok {
			return stub
		}
		return termDesc{kind: tkUncond, pc: pc, target: t, slot: slot, slotPC: pc + 4}

	case name == "call":
		t, ok := in.StaticTarget(pc)
		if !ok {
			return stub
		}
		slot, ok := needSlot()
		if !ok {
			return stub
		}
		return termDesc{kind: tkCall, pc: pc, target: t, slot: slot, slotPC: pc + 4}

	case name == "jmpl":
		rd, _ := in.Field("rd")
		rs1, _ := in.Field("rs1")
		op2, ok := decodeOp2(in)
		if !ok {
			return stub
		}
		slot, sok := needSlot()
		if !sok {
			return stub
		}
		return termDesc{kind: tkJmpl, pc: pc, rd: rd, rs1: rs1, op2: op2, slot: slot, slotPC: pc + 4}

	default:
		test, fp, ok := condName(name)
		if !ok {
			return stub
		}
		t, ok := in.StaticTarget(pc)
		if !ok {
			return stub
		}
		td := termDesc{kind: tkCond, pc: pc, target: t, annul: annul, test: test, fp: fp}
		if !annul {
			slot, ok := needSlot()
			if !ok {
				return stub
			}
			td.slot, td.slotPC = slot, pc+4
			return td
		}
		// Annulled conditional: the slot runs only when taken.
		slot, ok := needSlot()
		if !ok {
			return stub
		}
		td.slot, td.slotPC = slot, pc+4
		return td
	}
}

// condName maps a branch mnemonic to its condition-test symbol.
func condName(name string) (test string, fp, ok bool) {
	if len(name) > 2 && name[0] == 'f' && name[1] == 'b' {
		t := "f" + name[2:]
		_, ok := fccSets[t]
		return t, true, ok
	}
	if len(name) > 1 && name[0] == 'b' {
		t := name[1:]
		_, ok := condTests[t]
		return t, false, ok
	}
	return "", false, false
}

func decodeOp2(in *machine.Inst) (operand, bool) {
	iflag, ok := in.Field("iflag")
	if !ok {
		return operand{}, false
	}
	if iflag == 1 {
		simm, ok := in.Field("simm13")
		if !ok {
			return operand{}, false
		}
		return operand{imm: true, k: uint32(signExtend(uint64(simm), 13))}, true
	}
	rs2, ok := in.Field("rs2")
	if !ok {
		return operand{}, false
	}
	return operand{rs2: rs2}, true
}

// compileBody lowers a proto block's body instructions.  It returns
// ok=false when any instruction fails to lower.
func (rc *routineCompiler) compileBody(pb *protoBlock) ([]ROp, bool) {
	if len(pb.body) == 0 {
		return nil, true
	}
	ops := make([]ROp, len(pb.body))
	for i, ia := range pb.body {
		elide := rc.ccElidable(pb.body, i)
		op, ok := rc.bodyOp(ia.pc, ia.in, elide)
		if !ok {
			return nil, false
		}
		ops[i] = op
	}
	return ops, true
}

// lastCCKind reports the lazy-cc kind the block's last PSR-writing
// body instruction records, for branch fusion.  0 means "unknown"
// (no cc def in this block: the flags flow in from a predecessor).
func lastCCKind(body []instAt) uint8 {
	for i := len(body) - 1; i >= 0; i-- {
		if k := ccKindOf(body[i].in.Name()); k != ccNone {
			return k
		}
		if body[i].in.Writes().Has(machine.RegPSR) {
			return ccNone // non-cc PSR writer: don't fuse
		}
	}
	return ccNone
}

func ccKindOf(name string) uint8 {
	switch name {
	case "addcc":
		return ccKAdd
	case "subcc":
		return ccKSub
	case "andcc", "orcc", "xorcc", "andncc", "orncc", "xnorcc":
		return ccKLogic
	}
	return ccNone
}

// ccElidable reports whether the cc record of the instruction at
// body[i] can be skipped entirely: PSR must be dead after it
// (liveness), and — because liveness does not model faults — the
// next PSR def must arrive before any instruction that could observe
// PSR (a fault-capable op, a carry reader, or the block end, where a
// spill would materialize the flags).
func (rc *routineCompiler) ccElidable(body []instAt, i int) bool {
	if rc.pl == nil || ccKindOf(body[i].in.Name()) == ccNone {
		return false
	}
	if live, ok := rc.pl.LiveAfter(body[i].pc); !ok || live.Has(machine.RegPSR) {
		return false
	}
	for j := i + 1; j < len(body); j++ {
		in := body[j].in
		if ccKindOf(in.Name()) != ccNone {
			return true // re-defined before any observer
		}
		if in.Reads().Has(machine.RegPSR) || in.Writes().Has(machine.RegPSR) {
			return false
		}
		if faultCapable(in) {
			return false
		}
	}
	return false // reaches the terminator / block end
}

func faultCapable(in *machine.Inst) bool {
	if in.ReadsMem() || in.WritesMem() {
		return true
	}
	switch in.Name() {
	case "udiv", "sdiv", "ta":
		return true
	}
	return in.Category() == machine.CatSystem
}

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

// divErrNode digs the udiv/sdiv application node out of the
// instruction's semantic AST so a division-by-zero fault renders the
// same "rtl: eval ...: division by zero" string as the interpreter.
func divErrNode(in *machine.Inst, op string) Node {
	type semSource interface{ SemNode() Node }
	ss, ok := in.Sem().(semSource)
	if !ok {
		return Ident{Name: op}
	}
	var found Node
	Walk(ss.SemNode(), func(n Node) {
		if found != nil {
			return
		}
		if a, ok := n.(Apply); ok {
			h, _ := spine(a)
			if id, ok := h.(Ident); ok && id.Name == op {
				found = a
			}
		}
	})
	if found == nil {
		return Ident{Name: op}
	}
	return found
}

// bodyOp lowers one non-transfer instruction to an ROp.  elideCC
// skips the lazy condition-code record of a cc-setting op (proven
// unobservable).  ok=false means the instruction is not compilable
// at this tier.
func (rc *routineCompiler) bodyOp(pc uint32, in *machine.Inst, elideCC bool) (ROp, bool) {
	name := in.Name()
	rd, _ := in.Field("rd")
	rs1, _ := in.Field("rs1")

	// Operand decode helpers; not every instruction has op2.
	o, hasOp2 := decodeOp2(in)
	need2 := func() bool { return hasOp2 }

	switch name {
	// --- plain ALU, hand-specialized imm/reg forms ---
	case "add":
		if !need2() {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		if o.imm {
			k := o.k
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] + k; return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool { e.R[rd] = e.R[rs1] + e.R[rs2]; return false }, true
	case "sub":
		if !need2() {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		if o.imm {
			k := o.k
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] - k; return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool { e.R[rd] = e.R[rs1] - e.R[rs2]; return false }, true
	case "and":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 { return a & b })
	case "or":
		if !need2() {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		if o.imm {
			k := o.k
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] | k; return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool { e.R[rd] = e.R[rs1] | e.R[rs2]; return false }, true
	case "xor":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 { return a ^ b })
	case "andn":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 { return a &^ b })
	case "orn":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 { return a | ^b })
	case "xnor":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 { return ^(a ^ b) })
	case "umul":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 { return a * b })
	case "smul":
		return rc.alu2(rd, rs1, o, hasOp2, func(a, b uint32) uint32 {
			return uint32(int32(a) * int32(b))
		})
	case "sll":
		if !need2() {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		if o.imm {
			k := o.k & 31
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] << k; return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool { e.R[rd] = e.R[rs1] << (e.R[rs2] & 31); return false }, true
	case "srl":
		if !need2() {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		if o.imm {
			k := o.k & 31
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] >> k; return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool { e.R[rd] = e.R[rs1] >> (e.R[rs2] & 31); return false }, true
	case "sra":
		if !need2() {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		if o.imm {
			k := o.k & 31
			return func(e *REnv) bool { e.R[rd] = uint32(int32(e.R[rs1]) >> k); return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool {
			e.R[rd] = uint32(int32(e.R[rs1]) >> (e.R[rs2] & 31))
			return false
		}, true

	case "sethi":
		imm22, ok := in.Field("imm22")
		if !ok {
			return nil, false
		}
		if rd == 0 {
			return nopROp, true
		}
		k := imm22 << 10
		return func(e *REnv) bool { e.R[rd] = k; return false }, true

	case "rdy":
		if rd == 0 {
			return nopROp, true
		}
		return func(e *REnv) bool { e.R[rd] = e.Y; return false }, true
	case "wry":
		if !need2() {
			return nil, false
		}
		if o.imm {
			k := o.k
			return func(e *REnv) bool { e.Y = e.R[rs1] ^ k; return false }, true
		}
		rs2 := o.rs2
		return func(e *REnv) bool { e.Y = e.R[rs1] ^ e.R[rs2]; return false }, true

	// --- carry readers: must flush the lazy flags ---
	case "addx":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			e.FlushCC()
			v := e.R[rs1] + op2.val(e) + (e.PSR>>20)&1
			if rd != 0 {
				e.R[rd] = v
			}
			return false
		}, true
	case "subx":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			e.FlushCC()
			v := e.R[rs1] - op2.val(e) - (e.PSR>>20)&1
			if rd != 0 {
				e.R[rd] = v
			}
			return false
		}, true

	// --- cc setters: record lazily (or elide) ---
	case "addcc":
		if !need2() {
			return nil, false
		}
		op2 := o
		if elideCC {
			if rd == 0 {
				return nopROp, true
			}
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] + op2.val(e); return false }, true
		}
		return func(e *REnv) bool {
			a, b := e.R[rs1], op2.val(e)
			e.ccK, e.ccA, e.ccB = ccKAdd, a, b
			if rd != 0 {
				e.R[rd] = a + b
			}
			return false
		}, true
	case "subcc":
		if !need2() {
			return nil, false
		}
		op2 := o
		if elideCC {
			if rd == 0 {
				return nopROp, true
			}
			return func(e *REnv) bool { e.R[rd] = e.R[rs1] - op2.val(e); return false }, true
		}
		if op2.imm {
			k := op2.k
			return func(e *REnv) bool {
				a := e.R[rs1]
				e.ccK, e.ccA, e.ccB = ccKSub, a, k
				if rd != 0 {
					e.R[rd] = a - k
				}
				return false
			}, true
		}
		return func(e *REnv) bool {
			a, b := e.R[rs1], e.R[op2.rs2]
			e.ccK, e.ccA, e.ccB = ccKSub, a, b
			if rd != 0 {
				e.R[rd] = a - b
			}
			return false
		}, true
	case "andcc", "orcc", "xorcc", "andncc", "orncc", "xnorcc":
		if !need2() {
			return nil, false
		}
		var f func(a, b uint32) uint32
		switch name {
		case "andcc":
			f = func(a, b uint32) uint32 { return a & b }
		case "orcc":
			f = func(a, b uint32) uint32 { return a | b }
		case "xorcc":
			f = func(a, b uint32) uint32 { return a ^ b }
		case "andncc":
			f = func(a, b uint32) uint32 { return a &^ b }
		case "orncc":
			f = func(a, b uint32) uint32 { return a | ^b }
		default:
			f = func(a, b uint32) uint32 { return ^(a ^ b) }
		}
		op2 := o
		if elideCC {
			if rd == 0 {
				return nopROp, true
			}
			return func(e *REnv) bool { e.R[rd] = f(e.R[rs1], op2.val(e)); return false }, true
		}
		return func(e *REnv) bool {
			r := f(e.R[rs1], op2.val(e))
			e.ccK, e.ccA = ccKLogic, r
			if rd != 0 {
				e.R[rd] = r
			}
			return false
		}, true

	// --- division: may fault, interpreter-identical error ---
	case "udiv", "sdiv":
		if !need2() {
			return nil, false
		}
		op2 := o
		signed := name == "sdiv"
		errAt := divErrNode(in, name)
		return func(e *REnv) bool {
			b := op2.val(e)
			if b == 0 {
				return stopFault(e, &EvalError{errAt, "division by zero"})
			}
			if rd != 0 {
				if signed {
					e.R[rd] = uint32(int32(e.R[rs1]) / int32(b))
				} else {
					e.R[rd] = e.R[rs1] / b
				}
			}
			return false
		}, true

	// --- non-transfer branches: bn/fbn without annul is a nop ---
	case "bn", "fbn":
		if in.AnnulBit() {
			return nil, false // terminator territory
		}
		return nopROp, true

	// --- loads ---
	case "ld", "ldub", "lduh", "ldsb", "ldsh":
		if !need2() {
			return nil, false
		}
		op2 := o
		var width int
		var sext int // sign-extension width, 0 = zero-extend
		switch name {
		case "ld":
			width = 4
		case "ldub":
			width = 1
		case "lduh":
			width = 2
		case "ldsb":
			width, sext = 1, 8
		case "ldsh":
			width, sext = 2, 16
		}
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			v, err := e.Bridge.ReadMem(uint64(ea), width)
			if err != nil {
				return stopFault(e, err)
			}
			if sext != 0 {
				v = signExtend(v, sext)
			}
			if rd != 0 {
				e.R[rd] = uint32(v)
			}
			return false
		}, true

	case "ldd":
		if !need2() {
			return nil, false
		}
		op2 := o
		rdOdd := rd | 1
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			v0, err := e.Bridge.ReadMem(uint64(ea), 4)
			if err != nil {
				return stopFault(e, err)
			}
			v1, err := e.Bridge.ReadMem(uint64(ea+4), 4)
			if err != nil {
				return stopFault(e, err)
			}
			if rd != 0 {
				e.R[rd] = uint32(v0)
			}
			e.R[rdOdd] = uint32(v1) // rd|1 is never %g0
			return false
		}, true

	// --- stores: generation check after the write ---
	case "st", "stb", "sth":
		if !need2() {
			return nil, false
		}
		op2 := o
		width := 4
		if name == "stb" {
			width = 1
		} else if name == "sth" {
			width = 2
		}
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			if err := e.Bridge.WriteMem(uint64(ea), width, uint64(e.R[rd])); err != nil {
				return stopFault(e, err)
			}
			return genCheck(e)
		}, true

	case "std":
		if !need2() {
			return nil, false
		}
		op2 := o
		rdOdd := rd | 1
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			if err := e.Bridge.WriteMem(uint64(ea), 4, uint64(e.R[rd])); err != nil {
				return stopFault(e, err)
			}
			if err := e.Bridge.WriteMem(uint64(ea+4), 4, uint64(e.R[rdOdd])); err != nil {
				return stopFault(e, err)
			}
			return genCheck(e)
		}, true

	case "ldstub":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			v, err := e.Bridge.ReadMem(uint64(ea), 1)
			if err != nil {
				return stopFault(e, err)
			}
			if err := e.Bridge.WriteMem(uint64(ea), 1, 255); err != nil {
				return stopFault(e, err)
			}
			if rd != 0 {
				e.R[rd] = uint32(v)
			}
			return genCheck(e)
		}, true

	case "swap":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			mem, err := e.Bridge.ReadMem(uint64(ea), 4)
			if err != nil {
				return stopFault(e, err)
			}
			old := e.R[rd]
			if rd != 0 {
				e.R[rd] = uint32(mem)
			}
			if err := e.Bridge.WriteMem(uint64(ea), 4, uint64(old)); err != nil {
				return stopFault(e, err)
			}
			return genCheck(e)
		}, true

	case "ldf":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			v, err := e.Bridge.ReadMem(uint64(ea), 4)
			if err != nil {
				return stopFault(e, err)
			}
			e.F[rd] = uint32(v)
			return false
		}, true
	case "stf":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			ea := e.R[rs1] + op2.val(e)
			if err := e.Bridge.WriteMem(uint64(ea), 4, uint64(e.F[rd])); err != nil {
				return stopFault(e, err)
			}
			return genCheck(e)
		}, true

	// --- floating point (FSR is eager: fcmps' only output is the
	// condition codes, so laziness buys nothing there) ---
	case "fmovs":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool { e.F[rd] = e.F[rs2]; return false }, true
	case "fnegs":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool {
			e.F[rd] = math.Float32bits(-math.Float32frombits(e.F[rs2]))
			return false
		}, true
	case "fabss":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool {
			e.F[rd] = math.Float32bits(float32(math.Abs(float64(math.Float32frombits(e.F[rs2])))))
			return false
		}, true
	case "fadds", "fsubs", "fmuls", "fdivs":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		var f func(a, b float32) float32
		switch name {
		case "fadds":
			f = func(a, b float32) float32 { return a + b }
		case "fsubs":
			f = func(a, b float32) float32 { return a - b }
		case "fmuls":
			f = func(a, b float32) float32 { return a * b }
		default:
			f = func(a, b float32) float32 { return a / b }
		}
		return func(e *REnv) bool {
			e.F[rd] = math.Float32bits(f(math.Float32frombits(e.F[rs1]), math.Float32frombits(e.F[rs2])))
			return false
		}, true
	case "fitos":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool {
			e.F[rd] = math.Float32bits(float32(int32(e.F[rs2])))
			return false
		}, true
	case "fstoi":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool {
			e.F[rd] = uint32(int32(math.Float32frombits(e.F[rs2])))
			return false
		}, true
	case "fcmps":
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool {
			a := math.Float32frombits(e.F[rs1])
			b := math.Float32frombits(e.F[rs2])
			var fcc uint32
			switch {
			case a != a || b != b:
				fcc = 3
			case a < b:
				fcc = 1
			case a > b:
				fcc = 2
			}
			e.FSR = fcc << 10
			return false
		}, true

	// --- register windows ---
	case "save":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			v := e.R[rs1] + op2.val(e) // computed in the old window
			var w RWindow
			copy(w.Locals[:], e.R[16:24])
			copy(w.Ins[:], e.R[24:32])
			e.Windows = append(e.Windows, w)
			copy(e.R[24:32], e.R[8:16]) // new ins = old outs
			for i := 8; i < 24; i++ {
				e.R[i] = 0
			}
			if rd != 0 {
				e.R[rd] = v
			}
			return false
		}, true
	case "restore":
		if !need2() {
			return nil, false
		}
		op2 := o
		return func(e *REnv) bool {
			v := e.R[rs1] + op2.val(e)
			copy(e.R[8:16], e.R[24:32]) // new outs = old ins
			if n := len(e.Windows); n > 0 {
				w := e.Windows[n-1]
				e.Windows = e.Windows[:n-1]
				copy(e.R[16:24], w.Locals[:])
				copy(e.R[24:32], w.Ins[:])
			} else {
				for i := 16; i < 32; i++ {
					e.R[i] = 0
				}
			}
			if rd != 0 {
				e.R[rd] = v
			}
			return false
		}, true

	// --- traps ---
	case "ta":
		iflag, ok := in.Field("iflag")
		if !ok {
			return nil, false
		}
		if iflag == 1 {
			simm, ok := in.Field("simm13")
			if !ok {
				return nil, false
			}
			code := signExtend(uint64(simm), 13)
			return func(e *REnv) bool {
				if err := e.Bridge.RTrap(e, code); err != nil {
					return stopFault(e, err)
				}
				if e.Halted {
					e.StopKind = StopHalt
					return true
				}
				return false
			}, true
		}
		rs2, ok := in.Field("rs2")
		if !ok {
			return nil, false
		}
		return func(e *REnv) bool {
			if err := e.Bridge.RTrap(e, uint64(e.R[rs2])); err != nil {
				return stopFault(e, err)
			}
			if e.Halted {
				e.StopKind = StopHalt
				return true
			}
			return false
		}, true
	}

	return nil, false
}

// alu2 builds a generic two-operand ALU op.
func (rc *routineCompiler) alu2(rd, rs1 uint32, o operand, hasOp2 bool, f func(a, b uint32) uint32) (ROp, bool) {
	if !hasOp2 {
		return nil, false
	}
	if rd == 0 {
		return nopROp, true
	}
	if o.imm {
		k := o.k
		return func(e *REnv) bool { e.R[rd] = f(e.R[rs1], k); return false }, true
	}
	rs2 := o.rs2
	return func(e *REnv) bool { e.R[rd] = f(e.R[rs1], e.R[rs2]); return false }, true
}

// linkTerm materializes a block's terminator against the finished
// block index.
func (rc *routineCompiler) linkTerm(prog *RoutineProg, pb *protoBlock) RTerm {
	td := &pb.term
	resolve := func(pc uint32) rtarget {
		if k, ok := prog.Index[pc]; ok {
			return rtarget{k: k, pc: pc}
		}
		return rtarget{k: RTermExit, pc: pc}
	}

	switch td.kind {
	case tkFall, tkFallExit:
		tg := resolve(td.target)
		return func(e *REnv) int32 { return tg.enter(e) }

	case tkAnnulTaken:
		tg := resolve(td.target)
		return func(e *REnv) int32 {
			e.Insts++
			e.Annuls++
			return tg.enter(e)
		}

	case tkAnnulSkip:
		tg := resolve(td.target)
		return func(e *REnv) int32 {
			e.Insts++
			e.Annuls++
			return tg.enter(e)
		}

	case tkUncond:
		tg := resolve(td.target)
		slot, slotPC, t := td.slot, td.slotPC, td.target
		return func(e *REnv) int32 {
			if slot(e) {
				return slotStop(e, slotPC, t)
			}
			e.Insts += 2
			return tg.enter(e)
		}

	case tkCall:
		tg := resolve(td.target)
		slot, slotPC, t, p := td.slot, td.slotPC, td.target, td.pc
		return func(e *REnv) int32 {
			e.R[15] = p // %o7 = call address, before the slot runs
			if slot(e) {
				return slotStop(e, slotPC, t)
			}
			e.Insts += 2
			return tg.enter(e)
		}

	case tkJmpl:
		slot, slotPC, p := td.slot, td.slotPC, td.pc
		rd, rs1, op2 := td.rd, td.rs1, td.op2
		index := prog.Index
		return func(e *REnv) int32 {
			t := e.R[rs1] + op2.val(e) // old rs1, before rd write
			if rd != 0 {
				e.R[rd] = p
			}
			if slot(e) {
				return slotStop(e, slotPC, t)
			}
			e.Insts += 2
			if k, ok := index[t]; ok {
				return k
			}
			e.PC, e.NPC = t, t+4
			return RTermExit
		}

	case tkCond:
		pred := rc.predFor(pb)
		tgT := resolve(td.target)
		tgF := resolve(td.pc + 8)
		slot, slotPC, t, f := td.slot, td.slotPC, td.target, td.pc+8
		if td.annul {
			return func(e *REnv) int32 {
				if pred(e) {
					if slot(e) {
						return slotStop(e, slotPC, t)
					}
					e.Insts += 2
					return tgT.enter(e)
				}
				e.Insts++
				e.Annuls++
				return tgF.enter(e)
			}
		}
		return func(e *REnv) int32 {
			if pred(e) {
				if slot(e) {
					return slotStop(e, slotPC, t)
				}
				e.Insts += 2
				return tgT.enter(e)
			}
			if slot(e) {
				return slotStop(e, slotPC, f)
			}
			e.Insts += 2
			return tgF.enter(e)
		}
	}
	// Unreachable; stub blocks never call linkTerm.
	return func(e *REnv) int32 {
		e.PC, e.NPC = pb.base, pb.base+4
		return RTermExit
	}
}

// predFor compiles the branch predicate, fusing the comparison with
// the block's last cc-setting instruction when its kind is known.
func (rc *routineCompiler) predFor(pb *protoBlock) func(*REnv) bool {
	td := &pb.term
	if td.fp {
		set := fccSets[td.test]
		return func(e *REnv) bool {
			return set&(1<<((e.FSR>>10)&3)) != 0
		}
	}
	kind := lastCCKind(pb.body)
	if p := fusedPred(kind, td.test); p != nil {
		return p
	}
	test := condTests[td.test]
	return func(e *REnv) bool {
		e.FlushCC()
		return test(uint64(e.PSR)) != 0
	}
}

// fusedPred returns a direct predicate over the lazily recorded cc
// operands, or nil when the (kind, test) pair is not fused (the
// caller falls back to flush + PSR test).
func fusedPred(kind uint8, test string) func(*REnv) bool {
	switch kind {
	case ccKSub:
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
		case "pos":
			return func(e *REnv) bool { return int32(e.ccA-e.ccB) >= 0 }
		case "neg":
			return func(e *REnv) bool { return int32(e.ccA-e.ccB) < 0 }
		case "vs":
			return func(e *REnv) bool {
				return (e.ccA^e.ccB)&(e.ccA^(e.ccA-e.ccB))&0x80000000 != 0
			}
		case "vc":
			return func(e *REnv) bool {
				return (e.ccA^e.ccB)&(e.ccA^(e.ccA-e.ccB))&0x80000000 == 0
			}
		}
	case ccKLogic:
		switch test {
		case "ne":
			return func(e *REnv) bool { return e.ccA != 0 }
		case "e":
			return func(e *REnv) bool { return e.ccA == 0 }
		case "g":
			return func(e *REnv) bool { return int32(e.ccA) > 0 }
		case "le":
			return func(e *REnv) bool { return int32(e.ccA) <= 0 }
		case "ge":
			return func(e *REnv) bool { return int32(e.ccA) >= 0 }
		case "l":
			return func(e *REnv) bool { return int32(e.ccA) < 0 }
		case "gu":
			return func(e *REnv) bool { return e.ccA != 0 }
		case "leu":
			return func(e *REnv) bool { return e.ccA == 0 }
		case "cc":
			return func(*REnv) bool { return true }
		case "cs":
			return func(*REnv) bool { return false }
		case "pos":
			return func(e *REnv) bool { return int32(e.ccA) >= 0 }
		case "neg":
			return func(e *REnv) bool { return int32(e.ccA) < 0 }
		case "vc":
			return func(*REnv) bool { return true }
		case "vs":
			return func(*REnv) bool { return false }
		}
	}
	// ccKAdd (rare as a branch feeder) and unknown kinds fall back.
	return nil
}
