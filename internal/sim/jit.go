// The translation-cache execution engine: a threaded-code fast path
// for Run.  On first execution of a text address the decoded
// instruction's RTL semantics are lowered (once per distinct word and
// decoder, by rtl.Compile via spawn.TableDecoder.Compiled) to a flat
// micro-op program, and straight-line runs are collected into
// superblocks stored in a direct-mapped-by-address cache.  One
// executor (exec) runs every superblock, repeating
// execute-compiled-program / advance-pipeline with no memory fetch, no
// decoder lookup, and no AST dispatch; untaken conditional branches
// and annulled slots continue inside the block, and tight loops whose
// target lies in the block never leave it.
//
// On the chaining engines control stays out of the central dispatcher
// between blocks too (see runChained in sim.go): every instruction
// records, for exits it ends, the successor block last observed there.
// Static exits act as direct chain links; indirect exits
// (jmpl/ret/dispatch tables) use the same slot as a monomorphic inline
// cache, with a shared hashed victim table as a second level behind
// the direct-mapped cache.  Hot block anchors are re-translated into
// traces — longer superblocks that follow the observed hot path across
// block boundaries, biased by per-exit transition counts — and hot
// instructions step through direct-commit op lists (see promote),
// the one immediate-commit lowering, which the routine tier runs too.
// Every cached pointer is validated by the generation counter, and
// invalidation runs a bounded chain-unlinking pass over the blocks
// built since the last flush, so self-modifying-code handling stays
// exact and O(affected blocks).
//
// Architected behaviour is bit-identical to the interpreter: each
// step kind mirrors Step minus fetch/decode and shares finishStep,
// so delayed branches, annulled slots, register windows, traps,
// InstCount and AnnulCount agree exactly (the differential tests in
// jit_test.go and the three-way fuzz lockstep prove it).  The engine
// deoptimizes to Step whenever OnExec is set, the pc leaves
// translated text, or an instruction cannot be compiled — and cached
// blocks are invalidated when text memory is written (self-modifying
// edits) or the CPU is Reset onto a new executable.
package sim

import (
	"eel/internal/machine"
	"eel/internal/obs"
	"eel/internal/rtl"
	"eel/internal/telemetry"
)

const (
	// tcEntries sizes the direct-mapped block cache (indexed by
	// word-aligned pc).
	tcEntries = 1 << 12
	// tcMaxBlock bounds superblock length in instructions.
	tcMaxBlock = 64
	// vtEntries sizes the hashed victim table that backs the
	// direct-mapped cache: conflict-evicted blocks land here and are
	// promoted back on a hit instead of being rebuilt.
	vtEntries = 1 << 9
	// traceHotThreshold is the number of anchor entries after which a
	// linear block is re-translated into a trace.
	traceHotThreshold = 64
	// traceSiteMin is the minimum transition count an exit site needs
	// before it may steer trace extension, and a site must also carry
	// a strict majority of its block's observed exits.
	traceSiteMin = 16
	// traceMaxInsts / traceMaxSegs bound trace size.
	traceMaxInsts = 256
	traceMaxSegs  = 8
)

// compiledInst is one translated instruction: the interned decoded
// instruction, its compiled semantics and its text address (trace
// blocks are not contiguous, so each entry carries its own pc), with
// its own hot state and exit slot.
type compiledInst struct {
	inst *machine.Inst
	prog *rtl.Prog
	pc   uint32

	// indirect marks an exit that follows an indirect transfer (this
	// instruction, or the one whose delay slot it fills): its slot is
	// an inline cache rather than a direct chain link.  It sits here,
	// not in exitSlot, so that an instruction packs into 48 bytes.
	indirect bool

	// Hot state, set when the block turns hot (see promote): step
	// selects how exec runs the instruction, direct is the
	// direct-commit program of the two hot steps, and memw marks an
	// instruction that may write memory — the only kind whose
	// execution can invalidate the cache, so a lean step without it
	// skips the generation re-check.
	step   stepKind
	memw   bool
	direct *rtl.Direct

	// exit caches the successor for exits whose last executed
	// instruction was this one.
	exit exitSlot
}

// stepKind is how exec runs one compiled instruction.  Every kind
// mirrors Step minus fetch and decode, and shares its finishStep.
type stepKind uint8

const (
	// stepBuffered runs the buffered program (Prog.Run) with full
	// pipeline bookkeeping and profiling: every cold instruction, every
	// instruction rtl.CompileDirect refuses, and all of a profiled run.
	stepBuffered stepKind = iota
	// stepFull runs the direct op list with full pipeline bookkeeping:
	// a hot branch, call or trap.
	stepFull
	// stepLean runs the direct op list of an instruction free of
	// control effects (no pc write, annul or trap), whose pipeline
	// advance reduces to a sequential shift.
	stepLean
)

// exitSlot caches the successor last seen leaving a block at one exit
// site.  For exits reached through a static branch or fall-through it
// is a direct chain link; for indirect transfers it is a monomorphic
// inline cache keyed by pc.  count biases trace extension toward the
// dominant exit.
type exitSlot struct {
	blk   *tblock
	pc    uint32
	count uint32
}

// tblock is a superblock: compiled instructions for the text run
// starting at pc, or for a trace the hot path recorded from it.  A
// block with no instructions marks an address the engine must
// interpret (invalid word, uncompilable semantics).  gen records the
// cache generation the block was built in; a chain pointer may be
// followed only while the generations still match.
type tblock struct {
	pc     uint32
	insts  []compiledInst
	gen    uint64
	enters uint64
	trace  bool
}

// transCache is a direct-mapped translation cache plus its
// generation counter, bumped on every invalidation so in-flight
// superblocks notice text writes mid-run.  blocks registers every
// block built since the last flush so invalidation and trace
// installation can sever chain pointers without scanning the whole
// cache.
type transCache struct {
	entries [tcEntries]*tblock
	victims [vtEntries]*tblock
	blocks  []*tblock
	gen     uint64
	// watch indexes the Memory watch over the text segment, which
	// InvalidateText keeps on the current text bounds.
	watch int

	// ctr holds the translation-cache and routine-tier activity
	// counters, incremented in place by both tiers (the routine tier
	// runs only with a translation cache).  Its Insts and Annuls stay
	// zero: InstCount and AnnulCount are the architected copies.  A
	// reused CPU carries it across Run calls until ResetCounters.
	ctr Counters
}

func tcIndex(pc uint32) uint32 { return (pc >> 2) & (tcEntries - 1) }

// vtIndex hashes a block anchor into the victim table.  Colliding
// anchors differ in bits above the direct-mapped index, so a
// multiplicative hash keeps them from colliding here too.
func vtIndex(pc uint32) uint32 { return ((pc >> 2) * 0x9e3779b1) >> (32 - 9) }

// InvalidateText discards every cached translation block and moves
// the text write watch onto the current TextStart/TextEnd.  It is
// called automatically when a watched text write occurs or the CPU is
// Reset; callers that mutate text bypassing Memory (or change
// TextStart/TextEnd) should call it directly.
//
// Besides bumping the generation and clearing both cache levels, it
// severs every chain pointer installed since the last flush (the
// chain-unlinking pass): a caller holding a stale block reference can
// then never re-enter retired code through a link, and the work is
// bounded by the number of blocks actually built.
func (c *CPU) InvalidateText() {
	if c.tc == nil {
		return
	}
	c.tc.gen++
	c.tc.ctr.Flushes++
	w := &c.Mem.watches[c.tc.watch]
	w.lo, w.hi = c.TextStart, c.TextEnd
	for i := range c.tc.entries {
		c.tc.entries[i] = nil
	}
	for i := range c.tc.victims {
		c.tc.victims[i] = nil
	}
	for _, b := range c.tc.blocks {
		if b.trace {
			c.tc.ctr.TracesRetired++
		}
		for i := range b.insts {
			b.insts[i].exit.blk = nil
		}
	}
	c.tc.blocks = c.tc.blocks[:0]
	if c.rt != nil {
		// Stale routine programs must not be re-entered; in-flight
		// jobs are discarded at install by the generation check, and
		// content-keyed cache entries stay valid for unchanged text.
		c.rt.reset(c.TextStart, c.TextEnd)
	}
	c.textHashOK = false // text content changed; re-hash on demand
	telemetry.ActiveTracer().Instant("sim.jit.invalidate", "sim")
	obs.Record(obs.EvInvalidate, uint64(c.TextStart), c.tc.gen)
}

// block returns the translation block anchored at pc, building (and
// caching) it on a miss.  Conflict-evicted blocks are demoted to the
// victim table and promoted back — rather than rebuilt — when their
// anchor comes around again.
func (c *CPU) block(pc uint32) *tblock {
	c.ensureTC()
	i := tcIndex(pc)
	if b := c.tc.entries[i]; b != nil && b.pc == pc {
		return b
	}
	if vi := vtIndex(pc); c.tc.victims[vi] != nil {
		if b := c.tc.victims[vi]; b.pc == pc && b.gen == c.tc.gen {
			c.tc.victims[vi] = nil
			c.tc.ctr.VictimHits++
			c.install(i, b)
			return b
		}
	}
	b := c.buildBlock(pc)
	b.gen = c.tc.gen
	setExits(b.insts)
	c.install(i, b)
	c.tc.blocks = append(c.tc.blocks, b)
	c.tc.ctr.Builds++
	return b
}

// install places b in its direct-mapped slot, demoting any
// different-anchor occupant to the victim table so colliding hot
// blocks displace rather than destroy each other.
func (c *CPU) install(i uint32, b *tblock) {
	if old := c.tc.entries[i]; old != nil && old.pc != b.pc {
		c.tc.victims[vtIndex(old.pc)] = old
	}
	c.tc.entries[i] = b
}

// unlink severs every chain pointer to dead (bounded by the blocks
// built since the last flush) and drops it from the victim table, so
// a replaced translation cannot be re-entered through a link.
func (c *CPU) unlink(dead *tblock) {
	for _, b := range c.tc.blocks {
		for i := range b.insts {
			if b.insts[i].exit.blk == dead {
				b.insts[i].exit.blk = nil
			}
		}
	}
	if vi := vtIndex(dead.pc); c.tc.victims[vi] == dead {
		c.tc.victims[vi] = nil
	}
}

// buildBlock translates the straight-line run starting at pc.  It
// stops at text bounds, undecodable or uncompilable instructions, the
// block length cap, or DelaySlots() instructions past an unconditional
// control transfer (zero on machines without delay slots, so the block
// ends at the transfer itself); conditional branches do not end the
// block, which is what makes it a superblock.
//
// A control transfer sitting in another transfer's delay slot (a DCTI
// couple) is never admitted into a block: the couple's interleaved
// pipeline state spans what the block machinery treats as a boundary,
// so the builder conservatively closes the block at the first
// transfer and leaves the couple to the dispatcher's per-instruction
// path, which carries full PC/NPC bookkeeping.
func (c *CPU) buildBlock(pc uint32) *tblock {
	b := &tblock{pc: pc}
	slotsLeft := -1 // <0: not closing; 0: stop
	for addr := pc; len(b.insts) < tcMaxBlock && slotsLeft != 0; addr += c.isize {
		if addr < c.TextStart || addr >= c.TextEnd || addr%c.isize != 0 {
			break
		}
		word := c.Mem.Read32(addr)
		inst := c.dec.Decode(word)
		if !inst.Valid() {
			break
		}
		if slotsLeft > 0 && (inst.Category().IsControl() || inst.DelaySlots() > 0) {
			// DCTI couple: drop the slot instruction and close the
			// block at the first transfer.
			break
		}
		prog, err := semOf(inst).Compiled()
		if err != nil {
			break
		}
		b.insts = append(b.insts, compiledInst{inst: inst, prog: prog, pc: addr})
		if c.rtOn && inst.Category() == machine.CatCallDirect {
			// Static call targets are the routine tier's promotion
			// candidates.
			if t, ok := inst.StaticTarget(addr); ok {
				c.rtNoteCandidate(t)
			}
		}
		if slotsLeft > 0 {
			slotsLeft--
		} else if uncondTransfer(inst) {
			slotsLeft = inst.DelaySlots()
		}
	}
	return b
}

// promote re-translates a hot block's instructions into the direct
// tier: each instruction whose semantics rtl.CompileDirect can prove
// reorder-safe steps through its direct op list, committing writes
// immediately instead of buffering them per step.  Instructions whose
// semantics resist the proof (swap, cc ops overwriting their own
// source, register windows sharing a step) keep the buffered step —
// the tiers interleave freely within a block because each
// instruction's observable behaviour is identical either way.  Only
// the chaining engines promote, so EngineTranslated keeps measuring
// the buffered path.
func (c *CPU) promote(b *tblock) {
	for i := range b.insts {
		ci := &b.insts[i]
		d := semOf(ci.inst).CompiledDirect()
		if d == nil {
			continue
		}
		ci.direct, ci.memw, ci.step = d, d.Flags()&rtl.FlagMemWrite != 0, stepFull
		if d.Flags()&(rtl.FlagPC|rtl.FlagAnnul|rtl.FlagTrap) == 0 {
			ci.step = stepLean
		}
	}
}

// uncondTransfer reports whether inst always leaves the fall-through
// path, so that translating past its delay slot is wasted work.
func uncondTransfer(inst *machine.Inst) bool {
	switch inst.Category() {
	case machine.CatJumpDirect, machine.CatJumpIndirect,
		machine.CatCallDirect, machine.CatCallIndirect, machine.CatReturn:
		return !inst.Conditional()
	}
	return false
}

// indirectTransfer reports whether inst's target is computed at run
// time, so an exit attributed to it (or to its delay slot) behaves as
// an inline-cache site rather than a direct chain link.
func indirectTransfer(inst *machine.Inst) bool {
	switch inst.Category() {
	case machine.CatJumpIndirect, machine.CatCallIndirect, machine.CatReturn:
		return true
	}
	return false
}

// setExits gives every instruction of a new block or trace an empty
// exit slot and marks the sites that follow an indirect transfer.
func setExits(insts []compiledInst) {
	for j := range insts {
		insts[j].exit = exitSlot{}
		insts[j].indirect = indirectTransfer(insts[j].inst) ||
			j > 0 && indirectTransfer(insts[j-1].inst)
	}
}

// exec is the superblock executor, for linear blocks and traces alike.
// It enters b at its anchor (c.PC == b.pc) and runs until the pc
// leaves b or execution must stop, and reports the index of the last
// executed instruction so the caller can attribute the exit to its
// slot (-1, when none ran, comes only with stop).  stop is true when
// control must return to the dispatcher regardless of chaining: halt,
// step limit, or a mid-run cache invalidation.
//
// Each instruction runs by its stepKind.  The successor is the next
// entry when that entry's pc is c.PC (straight-line code, an untaken
// branch, a trace following its recorded path).  Otherwise a linear
// block finds c.PC by its offset (an in-block branch) and a trace only
// at its head (the loop closing); anything else leaves the block.
func (c *CPU) exec(b *tblock, maxSteps uint64, gen uint64) (last int, stop bool, err error) {
	last = -1
	insts := b.insts
	prof := c.prof != nil // profiled runs keep the fully-instrumented step
	c.rtlCtx.Bind(&c.env, c.regs())
	for i := 0; ; {
		if c.InstCount >= maxSteps {
			return last, true, nil // outer loop raises ErrStepLimit at this pc
		}
		ci := &insts[i]
		step := ci.step
		if prof {
			step = stepBuffered
		}
		switch step {
		case stepLean:
			if err := ci.direct.Run(&c.rtlCtx); err != nil {
				return last, true, &Fault{c.PC, err}
			}
			c.InstCount++
			last = i
			// NPC already encodes any pending delayed target, so the
			// shift is exact even in a delay slot.
			c.PC = c.NPC
			c.NPC += c.isize
			if ci.memw && c.tc.gen != gen {
				return last, true, nil
			}
		default:
			c.hasDelayed, c.hasImmediate = false, false
			annulBefore := c.annulNext
			var err error
			if step == stepFull {
				err = ci.direct.Run(&c.rtlCtx)
			} else {
				err = ci.prog.Run(&c.rtlCtx)
			}
			if err != nil {
				return last, true, &Fault{c.PC, err}
			}
			c.InstCount++
			last = i
			if prof {
				c.prof.record(c.PC, ci.inst, c.hasImmediate || c.hasDelayed)
			}
			if c.Halted {
				return last, true, nil
			}
			c.finishStep(annulBefore)
			if c.tc.gen != gen {
				return last, true, nil // text was written; b may be stale
			}
		}
		if i+1 < len(insts) && insts[i+1].pc == c.PC {
			i++
			continue
		}
		j := 0
		if !b.trace {
			// Fixed 4-byte stride: bindDesc rejects any other
			// instruction width at New.
			off := c.PC - b.pc
			if off&3 != 0 || off>>2 >= uint32(len(insts)) {
				return last, false, nil
			}
			j = int(off >> 2)
		} else if c.PC != b.pc {
			return last, false, nil
		}
		if j <= i && c.rtOn && c.rt.mb.has.Load() {
			// A backward transition closed a loop iteration and a
			// finished routine compile is waiting: bounce to the
			// dispatcher so it installs between steps.  Straight-line
			// execution never pays the atomic load.
			return last, true, nil
		}
		i = j
	}
}

// dominantExit picks the exit site carrying a strict majority of b's
// observed exits (and at least traceSiteMin transitions), returning
// the successor pc recorded there.  Blocks without a clearly biased
// exit do not steer trace extension.
func dominantExit(b *tblock) (site int, target uint32, ok bool) {
	var total uint64
	best, bestN := -1, uint32(0)
	for i := range b.insts {
		n := b.insts[i].exit.count
		total += uint64(n)
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 || bestN < traceSiteMin || uint64(bestN)*2 <= total {
		return 0, 0, false
	}
	s := &b.insts[best].exit
	if s.blk == nil {
		return 0, 0, false
	}
	return best, s.pc, true
}

// buildTrace re-translates the hot block head into a trace: a longer
// superblock following the observed dominant path across block
// boundaries, cut at each segment's majority exit.  The trace
// replaces head in the direct-mapped slot (chains into head are
// severed so the trace captures future entries); it returns nil when
// no extension is profitable.  Traces rely on no extra invariants:
// each executed entry is pc-guarded by exec and the generation
// counter, so a mispredicted path or text write simply side-exits.
func (c *CPU) buildTrace(head *tblock) *tblock {
	t := &tblock{pc: head.pc, trace: true, gen: c.tc.gen}
	cur := head
	for seg := 0; seg < traceMaxSegs; seg++ {
		site, target, ok := dominantExit(cur)
		if !ok {
			t.insts = append(t.insts, cur.insts...)
			break
		}
		t.insts = append(t.insts, cur.insts[:site+1]...)
		if len(t.insts) >= traceMaxInsts || target == head.pc {
			break
		}
		nb := c.block(target)
		if len(nb.insts) == 0 || nb.trace {
			break
		}
		cur = nb
	}
	if len(t.insts) <= len(head.insts) {
		return nil
	}
	setExits(t.insts)
	c.promote(t) // traces are hot by construction
	c.unlink(head)
	c.install(tcIndex(head.pc), t)
	c.tc.blocks = append(c.tc.blocks, t)
	c.tc.ctr.Traces++
	return t
}
