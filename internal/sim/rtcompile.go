package sim

// Routine composition: from a routine's CFG and liveness to a
// routineProg.  Which instructions end a block, where their targets
// and delay slots are, and whether an instruction can fault all come
// from the description (DelaySlots, AnnulBit, StaticTarget, Category,
// spawn effects); what each instruction does comes from
// rtl.LowerBody and rtl.LowerXfer.

import (
	"fmt"
	"sort"

	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/rtl"
	"eel/internal/spawn"
	"eel/internal/telemetry"
)

// routineCompiler carries one routine compilation's state.
type routineCompiler struct {
	inv  map[uint32]*machine.Inst
	pl   *dataflow.PointLiveness
	desc *spawn.Desc
}

type instAt struct {
	pc uint32
	in *machine.Inst
	rtl.Body
}

// protoBlock is a block before linking: lowered body, and the
// terminator (xfer) or fall-through successor (next).
type protoBlock struct {
	base uint32
	body []instAt
	next uint32 // fall-through successor when !isXfer
	// terminator at pc: its lowering and lowered delay slot
	isXfer bool
	pc     uint32
	x      rtl.Xfer
	slot   rtl.ROp
	// err is the first instruction that did not lower, at errPC; the
	// block is then a stub that exits to the lower tiers.
	err   error
	errPC uint32
}

// isTerm reports whether in ends a block: a control transfer, or an
// instruction that annuls its successor.
func isTerm(in *machine.Inst) bool { return in.Category().IsControl() || in.AnnulBit() }

// span is how many words a terminator covers: itself, its delay slot,
// or the successor it annuls.
func span(in *machine.Inst) uint32 {
	if !in.Category().IsControl() {
		return 2
	}
	return 1 + uint32(in.DelaySlots())
}

// semOf returns in's semantics; the CPU decodes only through spawn.
func semOf(in *machine.Inst) *spawn.InstSem { return in.Sem().(*spawn.InstSem) }

// compile lowers the routine rooted at entry.  A negative result
// carries the entry block's first lowering error.
func (rc *routineCompiler) compile(entry uint32) (ent *rtCacheEnt) {
	sp := telemetry.ActiveTracer().Begin("sim.compileRoutine", "sim")
	defer func() {
		if ent.err != nil {
			sp.Arg("error", ent.err.Error())
		}
		sp.End()
	}()
	if rc.inv[entry] == nil {
		return &rtCacheEnt{err: fmt.Errorf("routine entry %#x not in graph", entry)}
	}
	pcs := make([]uint32, 0, len(rc.inv))
	for pc := range rc.inv {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	leaders := map[uint32]bool{entry: true}
	for pc, in := range rc.inv {
		leaders[pc] = leaders[pc] || rc.inv[pc-4] == nil
		if isTerm(in) {
			leaders[pc+4*span(in)] = true
			if t, ok := in.StaticTarget(pc); ok {
				leaders[t] = true
			}
		}
	}

	prog := &routineProg{base: entry, heads: make([]int32, (pcs[len(pcs)-1]-entry)/4+1)}
	for i := range prog.heads {
		prog.heads[i] = -1
	}
	var protos []*protoBlock
	for idx := 0; idx < len(pcs); {
		base := pcs[idx]
		if !leaders[base] {
			idx++
			continue
		}
		pb := rc.formBlock(base, leaders)
		if pb.err == nil {
			prog.heads[(base-entry)/4] = int32(len(protos))
			protos = append(protos, pb)
		} else if base == entry {
			return &rtCacheEnt{err: pb.err, pc: pb.errPC}
		}
		for idx < len(pcs) && (pcs[idx] < base+4 || !leaders[pcs[idx]]) {
			idx++
		}
	}
	prog.blocks = make([]rblock, len(protos))
	for i, pb := range protos {
		ops := make([]rtl.ROp, len(pb.body))
		for j := range pb.body {
			ops[j] = pb.body[j].Op
			if pb.body[j].CC != 0 && rc.ccDead(pb.body, j) {
				ops[j] = pb.body[j].NoCC
			}
		}
		blk := &prog.blocks[i]
		blk.base, blk.ops = pb.base, ops
		blk.term, blk.cost = rc.link(prog, pb)
		blk.cost += uint64(len(ops))
	}
	return &rtCacheEnt{prog: prog}
}

// formBlock scans forward from base, lowering body instructions until
// a terminator or a leader boundary.
func (rc *routineCompiler) formBlock(base uint32, leaders map[uint32]bool) *protoBlock {
	pb := &protoBlock{base: base}
	for pc := base; ; pc += 4 {
		in := rc.inv[pc]
		if in == nil || (pc != base && leaders[pc]) {
			pb.next = pc
			return pb
		}
		if isTerm(in) {
			rc.lowerTerm(pb, pc, in)
			return pb
		}
		b, err := semOf(in).LowerBody(pc)
		if err != nil {
			pb.err, pb.errPC = err, pc
			return pb
		}
		pb.body = append(pb.body, instAt{pc, in, b})
	}
}

// lowerTerm lowers the block's terminator at pc and its delay slot.
// The branch condition fuses with the block's last cc record.
func (rc *routineCompiler) lowerTerm(pb *protoBlock, pc uint32, in *machine.Inst) {
	pb.isXfer, pb.pc = true, pc
	sem := semOf(in)
	cc, ccReg := rc.lastCC(pb.body)
	err := fmt.Errorf("%s: a transfer that can fault", in.Name())
	if !faults(in) {
		pb.x, err = rtl.LowerXfer(sem.Def.Sem, sem.CompileEnv(), pc, cc, ccReg)
	}
	if err != nil {
		pb.err, pb.errPC = err, pc
		return
	}
	if !pb.x.Delayed || (pb.x.Cond == nil && pb.x.AnnulTaken) {
		return // no slot executes
	}
	// The slot runs after the branch decision, outside the body: no
	// cc elision or fusion context applies to it.
	sin := rc.inv[pc+4]
	if sin == nil || isTerm(sin) {
		pb.err, pb.errPC = fmt.Errorf("%s: delay slot at %#x is not a plain instruction", in.Name(), pc+4), pc+4
		return
	}
	b, err := semOf(sin).LowerBody(pc + 4)
	if err != nil {
		pb.err, pb.errPC = err, pc+4
		return
	}
	pb.slot = b.Op
}

// lastCC reports the lazy cc kind and register the block's body
// leaves recorded at its end, for branch fusion: 0 when no body
// instruction records one, or a later one overwrites the register.
func (rc *routineCompiler) lastCC(body []instAt) (uint8, int64) {
	for i := len(body) - 1; i >= 0; i-- {
		if body[i].CC == 0 {
			continue
		}
		r := ccMachineReg(body[i])
		for _, later := range body[i+1:] {
			if later.in.Writes().Has(r) {
				return 0, 0
			}
		}
		return body[i].CC, body[i].CCReg
	}
	return 0, 0
}

// ccDead reports whether the cc record of body[i] can be skipped: its
// register is dead after it (liveness), and, because liveness does
// not model faults, the next record arrives before any instruction
// that could observe the register (a fault, a reader, or the block
// end, where a spill would materialize it).
func (rc *routineCompiler) ccDead(body []instAt, i int) bool {
	r := ccMachineReg(body[i])
	if live, ok := rc.pl.LiveAfter(body[i].pc); !ok || live.Has(r) {
		return false
	}
	for _, b := range body[i+1:] {
		if b.CC != 0 && b.CCReg == body[i].CCReg {
			return true
		}
		if b.in.Reads().Has(r) || b.in.Writes().Has(r) || faults(b.in) {
			return false
		}
	}
	return false
}

// ccMachineReg is the machine register a cc record stands for: a slot
// of the integer file, whose index is its machine register number
// (spawn's MachineReg).
func ccMachineReg(b instAt) machine.Reg { return machine.Reg(b.CCReg) }

// faults reports whether executing in can fail, from its spawn
// effects.
func faults(in *machine.Inst) bool { return semOf(in).Def.Info.Effects.Faults }

// rtarget is a link-resolved control-flow target: an in-program block
// index, or an exit at pc.
type rtarget struct {
	k  int32 // block index, or RTermExit
	pc uint32
}

func (t rtarget) enter(e *rtl.REnv) int32 {
	if t.k >= 0 {
		return t.k
	}
	e.PC, e.NPC = t.pc, t.pc+4
	return rtl.RTermExit
}

// slotStop finalizes a stop raised by a delay-slot instruction.
// During the slot the pipeline state is PC=slotpc, NPC=target (the
// transfer already wrote the delayed target).
func slotStop(e *rtl.REnv, slotpc, target uint32) int32 {
	switch e.StopKind {
	case rtl.StopFault:
		e.Insts++ // the transfer retired; the slot did not
		e.PC, e.NPC = slotpc, target
		e.StopPC = slotpc
	case rtl.StopHalt:
		e.Insts += 2
		e.PC, e.NPC = slotpc, target
	case rtl.StopGen:
		e.Insts += 2
		e.PC, e.NPC = target, target+4
	}
	return rtl.RTermStop
}

// leg finishes a transfer toward a static target: the link write (ln
// >= 0), the annulled or executed delay slot, and the instruction
// count.
func leg(tg rtarget, slot rtl.ROp, slotPC uint32, annul bool, ln int32, lv uint32) rtl.RTerm {
	t := tg.pc
	return func(e *rtl.REnv) int32 {
		if ln >= 0 {
			e.V[ln] = lv // a call's link, before the slot runs
		}
		switch {
		case annul:
			e.Annuls++
		case slot == nil:
		case slot(e):
			return slotStop(e, slotPC, t)
		default:
			e.Insts++
		}
		e.Insts++
		return tg.enter(e)
	}
}

// link materializes a block's terminator against the finished block
// index, with the most instructions it can retire.  The common shapes
// (a branch with a slot, a call, a return) are single closures.
func (rc *routineCompiler) link(prog *routineProg, pb *protoBlock) (rtl.RTerm, uint64) {
	resolve := func(pc uint32) rtarget {
		if k, ok := prog.head(pc); ok {
			return rtarget{k: k, pc: pc}
		}
		return rtarget{k: rtl.RTermExit, pc: pc}
	}
	if !pb.isXfer {
		tg := resolve(pb.next)
		return func(e *rtl.REnv) int32 { return tg.enter(e) }, 0
	}
	x, slot, pc := &pb.x, pb.slot, pb.pc
	slotPC, fall := pc+4, pc+4*span(rc.inv[pc])
	ln, lv := x.Link, x.LinkVal
	cost := uint64(1)
	if slot != nil {
		cost = 2
	}
	if x.Dyn != nil {
		dyn, dr, k := x.Dyn, x.DynReg, x.Target
		return func(e *rtl.REnv) int32 {
			var t uint32 // read before the link write
			if dr >= 0 {
				t = e.V[dr] + k
			} else {
				t = dyn(e)
			}
			if ln >= 0 {
				e.V[ln] = lv
			}
			if slot == nil {
				e.Insts++
			} else if slot(e) {
				return slotStop(e, slotPC, t)
			} else {
				e.Insts += 2
			}
			if k, ok := prog.head(t); ok {
				return k
			}
			e.PC, e.NPC = t, t+4
			return rtl.RTermExit
		}, cost
	}
	tT, tF := resolve(x.Target), resolve(fall)
	t, f := tT.pc, tF.pc
	pred := x.Cond
	switch {
	case pred == nil:
		return leg(tT, slot, slotPC, x.AnnulTaken, ln, lv), cost
	case slot == nil:
		taken, untaken := leg(tT, nil, 0, false, -1, 0), leg(tF, nil, 0, false, -1, 0)
		return func(e *rtl.REnv) int32 {
			if pred(e) {
				return taken(e)
			}
			return untaken(e)
		}, cost
	}
	annul := x.AnnulUntaken
	return func(e *rtl.REnv) int32 {
		if pred(e) {
			if slot(e) {
				return slotStop(e, slotPC, t)
			}
			e.Insts += 2
			return tT.enter(e)
		}
		if annul {
			e.Insts++
			e.Annuls++
			return tF.enter(e)
		}
		if slot(e) {
			return slotStop(e, slotPC, f)
		}
		e.Insts += 2
		return tF.enter(e)
	}, cost
}
