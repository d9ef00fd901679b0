package sim

// Routine composition: from a routine's CFG and liveness to a
// routineProg.  The blocks are the CFG's normal blocks, the partition
// the editor uses, split only where a direct call lands; they end
// where the description says (machine.Inst.EndsBlock), and a delay
// slot is the word of the CFG's slot block.  Whether an instruction
// can fault comes from its spawn effects; what each instruction does
// comes from the one immediate-commit lowering, rtl.CompileDirect
// (the buffered program for a word it refuses), plus rtl.LowerCC's
// lazy-cc pairs and rtl.LowerXfer's transfers.

import (
	"fmt"
	"slices"

	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/rtl"
	"eel/internal/telemetry"
)

// routineCompiler carries one routine compilation's state: the
// routine's CFG, whose normal blocks it compiles, and their liveness.
type routineCompiler struct {
	g  *cfg.Graph
	lv *dataflow.Liveness
}

// rword is one lowered body word: its op (nil for a word that does
// nothing), and the effects the runner handles around it (see
// CPU.rtEffects); a word with none is just its op.
type rword struct {
	op    rtl.OpFunc
	flags uint8
}

// rtStopFlags are the effect flags the runner acts on: a flush of the
// lazy flags before a word that touches an extended slot, the word's
// pc made architected before a buffered word that reads it, and a
// check after a trap (halt) or a memory write (text written).  A word
// with none of them is plain.
const rtStopFlags = rtl.FlagExtended | rtl.FlagPCRead | rtl.FlagTrap | rtl.FlagMemWrite

type instAt struct {
	in *machine.Inst
	rword
	// cc is the word's lazy-cc pair, when it lowered to one (cc.Kind
	// != 0).
	cc rtl.CCPair
}

// protoBlock is a block before linking: instructions [lo, lo+len(body))
// of the CFG block blk lowered, and the terminator (xfer) or
// fall-through successor (next).
type protoBlock struct {
	base uint32
	blk  *cfg.Block
	lo   int
	body []instAt
	// next is where control goes on when the block does not transfer:
	// the word after the body, or past the terminator's span.
	next uint32
	// terminator at pc: its lowering and lowered delay slot
	isXfer bool
	pc     uint32
	x      rtl.Xfer
	slot   *rword
	// err is the first instruction that did not lower, at errPC; the
	// block is then a stub that exits to the lower tiers.
	err   error
	errPC uint32
}

// compile lowers the routine rooted at entry: the CFG's normal blocks,
// in address order, each split where a direct call inside the extent
// lands, since the tier enters a routine at its call targets too.  A
// negative result carries the entry block's first lowering error.
func (rc *routineCompiler) compile(entry uint32) (ent *rtCacheEnt) {
	sp := telemetry.ActiveTracer().Begin("sim.compileRoutine", "sim")
	defer func() {
		if ent.err != nil {
			sp.Arg("error", ent.err.Error())
		}
		sp.End()
	}()
	g := rc.g
	if g.ByAddr[entry] == nil {
		return &rtCacheEnt{err: fmt.Errorf("routine entry %#x not in graph", entry)}
	}
	// called reports whether a direct call in the routine targets a.
	called := func(a uint32) bool {
		return slices.ContainsFunc(g.OutRefs, func(o cfg.OutRef) bool { return o.IsCall && o.Target == a })
	}
	prog := &routineProg{base: entry, heads: make([]int32, (g.End-entry)/4)}
	for i := range prog.heads {
		prog.heads[i] = -1
	}
	var protos []*protoBlock
	for _, b := range g.Blocks {
		if b.Kind != cfg.KindNormal {
			continue
		}
		for lo := 0; lo < len(b.Insts); {
			hi := lo + 1
			for hi < len(b.Insts) && !called(b.Insts[hi].Addr) {
				hi++
			}
			pb := rc.formBlock(b, lo, hi)
			if pb.err == nil {
				prog.heads[(pb.base-entry)/4] = int32(len(protos))
				protos = append(protos, pb)
			} else if pb.base == entry {
				return &rtCacheEnt{err: pb.err, pc: pb.errPC}
			}
			lo = hi
		}
	}
	prog.blocks = make([]rblock, len(protos))
	for i, pb := range protos {
		blk := &prog.blocks[i]
		blk.base, blk.words = pb.base, make([]rword, len(pb.body))
		for j := range pb.body {
			blk.words[j] = pb.body[j].rword
			if pb.body[j].cc.Kind != 0 && rc.ccDead(pb, j) {
				blk.words[j].op = pb.body[j].cc.NoCC
			}
		}
		blk.term, blk.cost = rc.link(prog, pb)
		blk.cost += uint64(len(blk.words))
	}
	return &rtCacheEnt{prog: prog}
}

// formBlock lowers instructions [lo, hi) of CFG block b: body words,
// then, when hi is the block's end and its last instruction ends it
// (machine.Inst.EndsBlock), the terminator.
func (rc *routineCompiler) formBlock(b *cfg.Block, lo, hi int) *protoBlock {
	pb := &protoBlock{base: b.Insts[lo].Addr, blk: b, lo: lo, next: b.Insts[hi-1].Addr + 4}
	for _, ci := range b.Insts[lo:hi] {
		if ci.MI.EndsBlock() {
			rc.lowerTerm(pb, ci.Addr, ci.MI)
			return pb
		}
		w, err := rc.lowerWord(ci.MI, ci.Addr)
		if err != nil {
			pb.err, pb.errPC = err, ci.Addr
			return pb
		}
		pb.body = append(pb.body, w)
	}
	return pb
}

// lowerWord lowers the body word in at pc: to its lazy-cc pair, its
// direct op list (rtl.CompileDirect, compiled at pc only when it reads
// pc), or, when CompileDirect refuses it, its buffered program.
func (rc *routineCompiler) lowerWord(in *machine.Inst, pc uint32) (instAt, error) {
	w := instAt{in: in}
	sem := semOf(in)
	if cc, ok := rtl.LowerCC(sem.Def.Sem, sem.CompileEnv()); ok {
		w.op, w.cc = cc.Op, cc
		return w, nil
	}
	var flags uint8
	if d := sem.CompiledDirectAt(pc); d != nil {
		w.op, flags = d.Run, d.Flags()
		switch ops := d.Ops(); len(ops) {
		case 0:
			w.op = nil
			return w, nil // nothing to run, so no effects either
		case 1:
			w.op = ops[0]
		}
	} else {
		p, err := sem.Compiled()
		if err != nil {
			return w, err
		}
		w.op, flags = p.Run, p.Flags()
	}
	if flags&(rtl.FlagPC|rtl.FlagAnnul) != 0 {
		return w, fmt.Errorf("%s: a control transfer in a routine body", in.Name())
	}
	w.flags = flags & rtStopFlags
	return w, nil
}

// lowerTerm lowers the block's terminator at pc and its delay slot,
// the word of the CFG's slot block after it.  The branch condition
// fuses with the block's last cc record.
func (rc *routineCompiler) lowerTerm(pb *protoBlock, pc uint32, in *machine.Inst) {
	pb.isXfer, pb.pc, pb.next = true, pc, pc+4*uint32(in.Span())
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
	// cc elision or fusion context applies to it.  The CFG holds no
	// slot block for a slot that is data.
	var sin *machine.Inst
	for _, e := range pb.blk.Succ {
		if e.To.Kind == cfg.KindDelaySlot {
			sin = e.To.Insts[0].MI
			break
		}
	}
	if sin == nil {
		pb.err, pb.errPC = fmt.Errorf("%s: delay slot at %#x is not a plain instruction", in.Name(), pc+4), pc+4
		return
	}
	w, err := rc.lowerWord(sin, pc+4)
	if err != nil {
		pb.err, pb.errPC = err, pc+4
		return
	}
	pb.slot = &w.rword
}

// lastCC reports the lazy cc kind and register the block's body
// leaves recorded at its end, for branch fusion: 0 when no body
// instruction records one, or a later one overwrites the register.
func (rc *routineCompiler) lastCC(body []instAt) (uint8, int64) {
	for i := len(body) - 1; i >= 0; i-- {
		if body[i].cc.Kind == 0 {
			continue
		}
		r := ccMachineReg(body[i])
		for _, later := range body[i+1:] {
			if later.in.Writes().Has(r) {
				return 0, 0
			}
		}
		return body[i].cc.Kind, body[i].cc.Reg
	}
	return 0, 0
}

// ccDead reports whether the cc record of pb.body[i] can be skipped:
// its register is dead after it (Liveness.LiveAfter at its place in
// the CFG block), and, because liveness does
// not model faults, the next record arrives before any instruction
// that could observe the register (a fault, a reader, or the block
// end, where a spill would materialize it).
func (rc *routineCompiler) ccDead(pb *protoBlock, i int) bool {
	r := ccMachineReg(pb.body[i])
	if rc.lv.LiveAfter(pb.blk, pb.lo+i).Has(r) {
		return false
	}
	for _, b := range pb.body[i+1:] {
		if b.cc.Kind != 0 && b.cc.Reg == pb.body[i].cc.Reg {
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
func ccMachineReg(b instAt) machine.Reg { return machine.Reg(b.cc.Reg) }

// faults reports whether executing in can fail, from its spawn
// effects.
func faults(in *machine.Inst) bool { return semOf(in).Def.Info.Effects.Faults }

// rtarget is a link-resolved control-flow target: an in-program block
// index, or an exit at pc.
type rtarget struct {
	k  int32 // block index, or rtExit
	pc uint32
}

func (t rtarget) enter(c *CPU) int32 {
	if t.k >= 0 {
		return t.k
	}
	c.PC, c.NPC = t.pc, t.pc+4
	return rtExit
}

// rslot is a terminator's delay slot: its word at pc.
type rslot struct {
	rword
	pc uint32
}

// slotOf makes delay-slot word w at pc an rslot; nil stays nil.
func slotOf(w *rword, pc uint32) *rslot {
	if w == nil {
		return nil
	}
	return &rslot{*w, pc}
}

// stops runs delay slot s and reports whether it stopped the routine
// (see CPU.slotStop); a slot that does not stop leaves the instruction
// count to its terminator.  A slot with nothing to run costs no call.
func (s *rslot) stops(c *CPU, target uint32) bool {
	return (s.flags != 0 || s.op != nil) && c.slotRuns(s, target)
}

// slotRuns is stops for a slot with something to run.
func (c *CPU) slotRuns(s *rslot, target uint32) bool {
	var err error
	if s.flags == 0 {
		if err = s.op(&c.rtlCtx); err == nil {
			return false
		}
	}
	return c.slotStop(s, err, target)
}

// slotStop finishes delay slot s, a word with effects or one whose op
// returned err, and reports whether it stopped the routine, having
// finalized the stop: PC, NPC and the count of the transfer and the
// slot.  During the slot the pipeline state is PC=s.pc, NPC=target
// (the transfer already wrote the delayed target).
func (c *CPU) slotStop(s *rslot, err error, target uint32) bool {
	stop := uint8(rtFault)
	if s.flags != 0 {
		if stop, err = c.rtEffects(&s.rword, s.pc); stop == rtRun {
			return false
		}
	}
	switch stop {
	case rtFault:
		c.InstCount++ // the transfer retired; the slot did not
		c.PC, c.NPC = s.pc, target
	case rtHalt:
		c.InstCount += 2
		c.PC, c.NPC = s.pc, target
	case rtGen:
		c.InstCount += 2
		c.PC, c.NPC = target, target+4
	}
	c.rt.stop, c.rt.err = stop, err
	return true
}

// leg finishes a transfer toward a static target: the link write (ln
// >= 0), the annulled or executed delay slot, and the instruction
// count.
func leg(tg rtarget, slot *rslot, annul bool, ln int32, lv uint32) rterm {
	t := tg.pc
	return func(c *CPU) int32 {
		if ln >= 0 {
			c.regs()[ln] = lv // a call's link, before the slot runs
		}
		switch {
		case annul:
			c.AnnulCount++
			c.InstCount++
		case slot == nil:
			c.InstCount++
		case slot.stops(c, t):
			return rtStop
		default:
			c.InstCount += 2
		}
		return tg.enter(c)
	}
}

// link materializes a block's terminator against the finished block
// index, with the most instructions it can retire.  The common shapes
// (a branch with a slot, a call, a return) are single closures.
func (rc *routineCompiler) link(prog *routineProg, pb *protoBlock) (rterm, uint64) {
	resolve := func(pc uint32) rtarget {
		if k, ok := prog.head(pc); ok {
			return rtarget{k: k, pc: pc}
		}
		return rtarget{k: rtExit, pc: pc}
	}
	if !pb.isXfer {
		tg := resolve(pb.next)
		return func(c *CPU) int32 { return tg.enter(c) }, 0
	}
	x, pc := &pb.x, pb.pc
	slot, fall := slotOf(pb.slot, pc+4), pb.next
	ln, lv := x.Link, x.LinkVal
	cost := uint64(1)
	if slot != nil {
		cost = 2
	}
	if x.Dyn != nil {
		dyn, dr, k := x.Dyn, x.DynReg, x.Target
		return func(c *CPU) int32 {
			var t uint32 // read before the link write
			if dr >= 0 {
				t = c.regs()[dr] + k
			} else {
				t = dyn(&c.rtlCtx)
			}
			if ln >= 0 {
				c.regs()[ln] = lv
			}
			switch {
			case slot == nil:
				c.InstCount++
			case slot.stops(c, t):
				return rtStop
			default:
				c.InstCount += 2
			}
			if k, ok := prog.head(t); ok {
				return k
			}
			c.PC, c.NPC = t, t+4
			return rtExit
		}, cost
	}
	tT, tF := resolve(x.Target), resolve(fall)
	t, f := tT.pc, tF.pc
	pred := x.Cond
	switch {
	case pred == nil:
		return leg(tT, slot, x.AnnulTaken, ln, lv), cost
	case slot == nil:
		taken, untaken := leg(tT, nil, false, -1, 0), leg(tF, nil, false, -1, 0)
		return func(c *CPU) int32 {
			if pred(&c.rtlCtx) {
				return taken(c)
			}
			return untaken(c)
		}, cost
	}
	annul := x.AnnulUntaken
	return func(c *CPU) int32 {
		if pred(&c.rtlCtx) {
			if slot.stops(c, t) {
				return rtStop
			}
			c.InstCount += 2
			return tT.enter(c)
		}
		if annul {
			c.InstCount++
			c.AnnulCount++
			return tF.enter(c)
		}
		if slot.stops(c, f) {
			return rtStop
		}
		c.InstCount += 2
		return tF.enter(c)
	}, cost
}
