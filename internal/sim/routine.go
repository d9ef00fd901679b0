// The routine tier: the emulator's third execution engine.  When a
// chained block stays hot and its anchor is a known routine entry
// (a static call target, the initial pc, or a pc the tier itself
// exited to), the routine's whole extent is compiled into a flat block
// program that runs over the CPU's own registers, rtl.Ctx and cpuEnv,
// with the condition codes kept lazy across block boundaries and
// materialized only where they may be read: before a word that touches
// an extended slot, and at routine exits, faults, traps, and deopt
// points.  Each body word runs its rtl.Direct op list — the one
// immediate-commit lowering the chained tier runs too — or, when
// rtl.CompileDirect refuses it, its buffered program; this file and
// rtcompile.go compose them: extent, CFG and liveness from the paper's
// analyses, the CFG's own blocks (split only at in-extent call
// targets, where the tier also enters), lazy-cc pairs and their
// liveness-gated elision, transfers (rtl.LowerXfer), and linking.
//
// Compilation runs on a background goroutine so the running engine
// never stalls: the chained tier keeps executing, finished programs
// land in a mailbox, and the dispatcher installs them between blocks
// (never mid-step).  Installed programs are validated against the
// write-watch generation counter; a self-modifying store inside a
// routine deopts back to the chained tier with exact architected
// state (the store retires, nothing after it runs).
//
// Programs are content-addressed — keyed by (description, text range,
// FNV-1a of the text, entry) in a process-wide cache — so every CPU
// executing the same routine shares one compilation, and a Reset onto
// the same image re-installs instead of re-compiling.
package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eel/internal/cfg"
	"eel/internal/dataflow"
	"eel/internal/machine"
	"eel/internal/obs"
	"eel/internal/rtl"
	"eel/internal/spawn"
)

const (
	// rtDefaultHotThreshold is the block-enter count that promotes a
	// candidate routine entry to background compilation.
	rtDefaultHotThreshold = 32
	// rtMaxExtent bounds the forward extent scan, in instructions.
	rtMaxExtent = 2048
	// rtQueueDepth is the background compile queue capacity; requests
	// beyond it are dropped (the entry stays a candidate and can be
	// re-requested after an invalidation).
	rtQueueDepth = 64
)

// rtWord is the routine tier's record of one text word.
type rtWord struct {
	// prog, when set, is an installed routine program with a block
	// starting here; idx is that block's index.
	prog *routineProg
	idx  int32
	// enters counts dispatcher arrivals while the word is a candidate,
	// so a hot candidate promotes straight from the dispatcher without
	// first paying a superblock translation it would immediately
	// abandon.
	enters uint32
	// cand marks a believed routine entry: a static call target seen
	// during block translation, the run's initial pc, or a pc the
	// routine tier exited to.
	cand bool
	// pending marks an entry with an in-flight compile request.
	pending bool
}

// rblock is one compiled basic block of a routine program.
type rblock struct {
	base  uint32
	words []rword
	term  rterm
	// cost bounds how many instructions the block can retire (body +
	// terminator + delay slot); the runner refuses entry when the
	// step budget cannot cover it.
	cost uint64
}

// rterm is a block terminator.  It returns the next block index, or
// rtExit or rtStop, having finalized PC, NPC and the instruction and
// annul counts itself.
type rterm func(c *CPU) int32

// Terminator sentinels.
const (
	// rtExit: control left the routine; the runner may re-enter
	// another routine at PC.
	rtExit int32 = -1
	// rtStop: a delay slot stopped execution; routineState.stop and err
	// say how.
	rtStop int32 = -2
)

// How a body word stopped the routine (CPU.rtEffects).
const (
	rtRun   = iota // it did not
	rtFault        // it failed and did not retire
	rtHalt         // a trap halted the machine; the trap retired
	rtGen          // it wrote text; it retired, and the routine deopts
)

// routineProg is a whole compiled routine: a flat block list plus an
// index from block base pc to block number.  It is immutable after
// compilation and safe to share across CPUs.
type routineProg struct {
	blocks []rblock
	// heads[(pc-base)/4] is the index of the compiled block starting
	// at pc, or -1; the block heads are the pcs at which the routine
	// tier may enter.  Blocks whose instructions did not lower are
	// left out: control into them exits to the lower tiers.
	base  uint32
	heads []int32
}

// head returns the index of the compiled block starting at pc.
func (p *routineProg) head(pc uint32) (int32, bool) {
	i := (pc - p.base) / 4
	if (pc-p.base)%4 != 0 || i >= uint32(len(p.heads)) || p.heads[i] < 0 {
		return 0, false
	}
	return p.heads[i], true
}

// rtMailbox receives finished compilations from the background
// worker.  has is the engine's cheap "anything to install?" probe,
// checked at block transitions.
type rtMailbox struct {
	mu   sync.Mutex
	jobs []*rtJob
	has  atomic.Bool
}

func (mb *rtMailbox) deliver(job *rtJob) {
	mb.mu.Lock()
	mb.jobs = append(mb.jobs, job)
	mb.mu.Unlock()
	mb.has.Store(true)
}

// rtJob is one compile request: a private copy of the routine's text
// (the worker must not race engine-side memory writes) plus the
// generation it was snapshotted under.
type rtJob struct {
	dec   *spawn.TableDecoder
	text  []byte
	entry uint32
	gen   uint64
	key   rtCacheKey
	mb    *rtMailbox
	res   *rtCacheEnt // result
}

// rtCacheKey content-addresses a routine compilation by the machine
// description, the image's whole-text hash and the entry pc: the same
// bytes mean different programs on different machines.  Keying on the whole text (hashed
// once per image, see rtTextHash) instead of the routine's own bytes
// lets a repeat run of the same image skip the extent scan entirely —
// the scan decodes up to rtMaxExtent instructions and dominated
// promotion cost before results were reusable.
type rtCacheKey struct {
	desc               *spawn.Desc
	textStart, textEnd uint32
	hash               uint64
	entry              uint32
}

// rtCacheEnt is a compilation result.  A negative one (prog nil) keeps
// why: err, and the pc of the first instruction whose semantics did
// not lower (0 when no instruction is to blame: no routine extent, or
// no CFG from the entry).  key is the key it was cached under.
type rtCacheEnt struct {
	key  rtCacheKey
	prog *routineProg
	err  error
	pc   uint32
}

// rtProgCache shares compiled routine programs (including negative
// results) process-wide; programs are immutable after compilation.
// It is a spawn.Table, the memo's table: a collision only costs a
// recompile, and a self-modifying program, which makes new keys at
// every text write, cannot grow a long-running eeld beyond its slots.
var rtProgCache spawn.Table[rtCacheEnt]

// slot picks key's slot from the text hash and the entry pc, never a
// pointer, so which keys collide does not depend on the run.
func (k rtCacheKey) slot() uint32 {
	return uint32((k.hash ^ uint64(k.entry)) * 0x9e3779b97f4a7c15 >> (64 - spawn.TableBits))
}

// load returns the entry tab holds under key.
func (k rtCacheKey) load(tab *spawn.Table[rtCacheEnt]) (*rtCacheEnt, bool) {
	e := tab[k.slot()].Load()
	return e, e != nil && e.key == k
}

// store caches ent, which no other goroutine holds yet, under key in
// tab, and returns the entry tab then holds for key: ent, or the one
// a goroutine that compiled the same key stored first.
func (k rtCacheKey) store(tab *spawn.Table[rtCacheEnt], ent *rtCacheEnt) *rtCacheEnt {
	ent.key = k
	return tab.Put(k.slot(), ent, func(e *rtCacheEnt) bool { return e.key == k })
}

// routineState is the per-CPU routine-tier state.
type routineState struct {
	// words holds one record per text word of [base, base+4*len),
	// the text bounds at the last reset.
	words []rtWord
	base  uint32
	mb    *rtMailbox
	// gen is the translation generation the running routine was
	// entered under; stop and err are a delay slot's stop (rtStop).
	gen  uint64
	stop uint8
	err  error
}

// word returns pc's record, or nil when pc is unaligned or outside
// the text the table was sized for.
func (rt *routineState) word(pc uint32) *rtWord {
	i := (pc - rt.base) / 4
	if (pc-rt.base)%4 != 0 || i >= uint32(len(rt.words)) {
		return nil
	}
	return &rt.words[i]
}

// ensureTC lazily creates the translation cache and its write watch;
// extracted from block() so the routine tier can pin the generation
// counter's address before the first block is built.
func (c *CPU) ensureTC() {
	if c.tc == nil {
		c.tc = &transCache{}
		// Self-modifying edits must evict stale translations.
		c.tc.watch = c.Mem.WatchWrites(c.TextStart, c.TextEnd, func(addr, n uint32) { c.InvalidateText() })
	}
}

func (c *CPU) ensureRT() {
	c.ensureTC()
	if c.rt == nil {
		c.rt = &routineState{mb: &rtMailbox{}}
		c.rt.reset(c.TextStart, c.TextEnd)
	}
}

// reset forgets every installed program and candidate.  It sizes the
// per-word table to the given text bounds, which may have changed
// since the last reset, reusing (and zeroing) the table's storage.
func (rt *routineState) reset(start, end uint32) {
	rt.words = append(rt.words[:0], make([]rtWord, max(int64(end)-int64(start), 0)/4)...)
	rt.base = start
}

func (c *CPU) rtThreshold() uint64 {
	if c.RoutineHotThreshold != 0 {
		return c.RoutineHotThreshold
	}
	return rtDefaultHotThreshold
}

// rtNoteCandidate records pc as a believed routine entry.
func (c *CPU) rtNoteCandidate(pc uint32) {
	if w := c.rt.word(pc); w != nil {
		w.cand = true
	}
}

func fnvAdd(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * 0x100000001b3
	}
	return h
}

// rtTextHash returns the content hash of [TextStart,TextEnd),
// computed page-at-a-time and cached on the CPU.  The cached value is
// dropped by InvalidateText, and the write watch (installed by
// ensureTC before any routine request) reports every text write, so
// the hash cannot go stale unnoticed.
func (c *CPU) rtTextHash() uint64 {
	if c.textHashOK {
		return c.textHash
	}
	h := uint64(0xcbf29ce484222325)
	for a := c.TextStart; a < c.TextEnd; {
		n := min(c.TextEnd-a, pageSize-a%pageSize)
		h = fnvAdd(h, c.Mem.view(a)[a%pageSize:][:n])
		a += n
	}
	c.textHash, c.textHashOK = h, true
	return h
}

// rtExtent scans forward from entry for the routine's textual extent:
// the smallest contiguous range that contains every forward branch
// target and ends just past an unconditional transfer (and its delay
// slot), or at the end of text.  Calls do not end the extent — control
// returns after them.
func (c *CPU) rtExtent(entry uint32) (end uint32, ok bool) {
	maxTarget := entry
	pc := entry
	for ; pc < c.TextEnd && (pc-entry)>>2 < rtMaxExtent; pc += 4 {
		inst := c.dec.Decode(c.Mem.Read32(pc))
		if !inst.Valid() {
			if pc > maxTarget {
				return pc, true // ran into data past every pending target
			}
			return 0, false
		}
		if t, tok := inst.StaticTarget(pc); tok && inst.Category() != machine.CatCallDirect {
			if t > maxTarget && t < c.TextEnd {
				maxTarget = t
			}
		}
		if uncondTransfer(inst) &&
			inst.Category() != machine.CatCallDirect &&
			inst.Category() != machine.CatCallIndirect &&
			pc >= maxTarget {
			end = pc + 8 // transfer + delay slot
			if end > c.TextEnd {
				end = c.TextEnd
			}
			return end, true
		}
	}
	if pc >= c.TextEnd && pc > maxTarget {
		return c.TextEnd, true
	}
	return 0, false
}

// rtCompileJob resolves a job through the shared program cache,
// compiling on a miss.  Negative results are cached too.
func rtCompileJob(job *rtJob) *rtCacheEnt {
	if ent, ok := job.key.load(&rtProgCache); ok {
		return ent
	}
	return job.key.store(&rtProgCache, rtCompileText(job.dec, job.text, job.entry))
}

// rtCompileText compiles the routine whose text starts at its entry.
func rtCompileText(dec *spawn.TableDecoder, text []byte, entry uint32) *rtCacheEnt {
	end := entry + uint32(len(text))
	g, err := cfg.Build(dec, machine.DecodeText(dec, text), entry, entry, end, []uint32{entry})
	if err != nil {
		return &rtCacheEnt{err: err}
	}
	return (&routineCompiler{g: g, lv: dataflow.ComputeLiveness(g)}).compile(entry)
}

// The background compiler: one process-wide worker goroutine and a
// bounded queue.  Jobs carry their own text copy and mailbox, so one
// worker serves every CPU.
var (
	rtWorkerOnce sync.Once
	rtWorkQueue  chan *rtJob
)

func rtWorkerStart() {
	rtWorkQueue = make(chan *rtJob, rtQueueDepth)
	go func() {
		for job := range rtWorkQueue {
			job.res = rtCompileJob(job)
			job.mb.deliver(job)
		}
	}()
}

// rtQueueDepthNow reports the background queue's current depth for
// the telemetry gauge.
func rtQueueDepthNow() int { return len(rtWorkQueue) }

// rtRequest issues a compile request for the routine entered at
// entry.  Synchronous mode (tests, fuzzing) compiles and installs
// inline; otherwise the job goes to the background worker and the
// engine keeps running chained code until the mailbox delivers.
func (c *CPU) rtRequest(entry uint32) {
	w := c.rt.word(entry)
	if w == nil || w.pending {
		return
	}
	c.tc.ctr.TierPromotions++
	obs.Record(obs.EvTierPromote, uint64(entry), uint64(w.enters))
	key := rtCacheKey{desc: c.dec.Desc(), textStart: c.TextStart, textEnd: c.TextEnd, hash: c.rtTextHash(), entry: entry}
	if ent, ok := key.load(&rtProgCache); ok {
		// Same image, same entry: install the shared program (or the
		// cached negative result) without scanning or compiling.
		c.rtInstall(&rtJob{entry: entry, gen: c.tc.gen, res: ent})
		return
	}
	end, ok := c.rtExtent(entry)
	if !ok || end <= entry {
		ent := key.store(&rtProgCache, &rtCacheEnt{err: fmt.Errorf("no routine extent at %#x", entry)})
		c.rtInstall(&rtJob{entry: entry, gen: c.tc.gen, res: ent})
		return
	}
	text := make([]byte, end-entry)
	c.Mem.ReadSegment(entry, text)
	job := &rtJob{
		dec:   c.dec,
		text:  text,
		entry: entry,
		gen:   c.tc.gen,
		key:   key,
		mb:    c.rt.mb,
	}
	w.pending = true
	if c.RoutineSync {
		job.res = rtCompileJob(job)
		c.rtInstall(job)
		return
	}
	rtWorkerOnce.Do(rtWorkerStart)
	select {
	case rtWorkQueue <- job:
	default:
		w.pending = false // queue full: drop, keep candidacy
		obs.Record(obs.EvCompileStall, uint64(entry), rtQueueDepth)
	}
}

// rtDrain installs every finished compilation waiting in the
// mailbox.  Called only between blocks, so promotion never interrupts
// a step.
func (c *CPU) rtDrain() {
	if !c.rt.mb.has.Load() {
		return
	}
	c.rt.mb.mu.Lock()
	jobs := c.rt.mb.jobs
	c.rt.mb.jobs = nil
	c.rt.mb.has.Store(false)
	c.rt.mb.mu.Unlock()
	for _, job := range jobs {
		c.rtInstall(job)
	}
}

func (c *CPU) rtInstall(job *rtJob) {
	w := c.rt.word(job.entry)
	if w != nil {
		w.pending = false
	}
	prog := job.res.prog
	if prog == nil {
		if w != nil {
			w.cand = false // not compilable; stop asking
		}
		obs.Record(obs.EvRoutineRefuse, uint64(job.entry), uint64(job.res.pc))
		return
	}
	if job.gen != c.tc.gen {
		return // text changed since the snapshot; a rebuilt hot block re-requests
	}
	for i, k := range prog.heads {
		if h := c.rt.word(prog.base + 4*uint32(i)); h != nil && k >= 0 {
			h.prog, h.idx = prog, k
		}
	}
	c.tc.ctr.RoutinesCompiled++
	obs.Record(obs.EvRoutineInstall, uint64(job.entry), uint64(len(prog.blocks)))
}

// rtEffects runs body word w, one with effects, at pc and reports
// whether and how it stopped the routine: a failure is the op's error
// (the interpreter's string), a halt is c.Halted after a trap, and a
// text write is a generation change after a memory write.  The lazy
// condition codes are flushed before a word that touches their slot,
// and a buffered word that reads pc sees pc.  A plain word is just its
// op, which the runner calls inline.
func (c *CPU) rtEffects(w *rword, pc uint32) (stop uint8, err error) {
	if w.flags&rtl.FlagExtended != 0 {
		c.rtlCtx.FlushCC()
	}
	if w.flags&rtl.FlagPCRead != 0 {
		c.PC = pc
	}
	if err := w.op(&c.rtlCtx); err != nil {
		return rtFault, err
	}
	if w.flags&rtl.FlagTrap != 0 && c.Halted {
		return rtHalt, nil
	}
	if w.flags&rtl.FlagMemWrite != 0 && c.tc.gen != c.rt.gen {
		return rtGen, nil
	}
	return rtRun, nil
}

// runRoutine executes installed routine programs starting at block k
// of p until control leaves compiled routines, execution must stop, or
// the step budget cannot cover the next block.  It reports whether any
// instruction was executed: a budget refusal before the first block
// returns (false, nil) so the caller falls back to a per-instruction
// tier that can hit the limit exactly.  Every way out materializes the
// lazy condition codes, the only place they become architected.
func (c *CPU) runRoutine(p *routineProg, k int32, maxSteps uint64) (executed bool, err error) {
	c.rtlCtx.Bind(&c.env, c.regs())
	c.rt.gen = c.tc.gen
	executed, err = c.runBlocks(p, k, maxSteps)
	c.rtlCtx.FlushCC()
	return executed, err
}

// runBlocks is runRoutine's loop over blocks.
func (c *CPU) runBlocks(p *routineProg, k int32, maxSteps uint64) (executed bool, err error) {
	ctx := &c.rtlCtx
	for {
		blk := &p.blocks[k]
		if c.InstCount+blk.cost > maxSteps {
			// At a block head the pipeline is sequential, so the
			// architected pc is exactly the head address.  In-program
			// terminators return a block index without touching PC.
			c.PC, c.NPC = blk.base, blk.base+4
			return executed, nil
		}
		executed = true
		for i := range blk.words {
			w := &blk.words[i]
			var err error
			if w.flags == 0 {
				if w.op == nil {
					continue
				}
				if err = w.op(ctx); err == nil {
					continue
				}
			}
			pc, stop := blk.base+uint32(4*i), uint8(rtFault)
			if w.flags != 0 {
				if stop, err = c.rtEffects(w, pc); stop == rtRun {
					continue
				}
			}
			c.InstCount += uint64(i)
			c.PC, c.NPC = pc, pc+4
			if stop == rtFault {
				return true, &Fault{pc, err}
			}
			c.InstCount++ // a halting trap or a text store retires
			if stop == rtGen {
				c.PC, c.NPC = pc+4, pc+8
				c.rtDeopt(pc)
			}
			return true, nil
		}
		c.InstCount += uint64(len(blk.words))
		next := blk.term(c)
		if next >= 0 {
			k = next
			continue
		}
		if next == rtExit {
			// Cross-routine continuation: an exit landing on another
			// installed head (call, tail call, return) stays in the
			// tier.
			if w := c.rt.word(c.PC); w != nil && w.prog != nil && c.NPC == c.PC+4 {
				p, k = w.prog, w.idx
				continue
			}
			c.rtNoteCandidate(c.PC)
			return true, nil
		}
		// rtStop: the terminator finalized everything.
		switch c.rt.stop {
		case rtGen:
			c.rtDeopt(c.PC)
		case rtFault:
			return true, &Fault{c.PC, c.rt.err}
		}
		return true, nil
	}
}

// rtDeopt counts a deopt at pc, a store into text.
func (c *CPU) rtDeopt(pc uint32) {
	c.tc.ctr.RoutineDeopts++
	obs.Record(obs.EvRoutineDeopt, uint64(pc), c.rt.gen)
}
