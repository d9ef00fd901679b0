// Package sim is a machine-generic emulator driven directly by the
// spawn machine description's RTL semantics: each step decodes a word
// and executes its semantic AST, so the description is the single
// source of truth for both analysis and execution.  The register map,
// instruction stride, delay-slot behaviour, and trap ABI are all data
// read from the description and the arch registry — SPARC, MIPS, and
// Alpha descriptions run on the same substrate.  The emulator models
// delayed control transfers, annulled delay slots, register windows,
// big-endian memory, and a small system-call ABI — everything the
// paper's execution-based experiments (Active Memory cache
// simulation, edited-program validation) need.
package sim

import (
	"errors"
	"fmt"
	"io"
	"unsafe"

	"eel/internal/machine"
	"eel/internal/rtl"
	"eel/internal/spawn"
	"eel/internal/telemetry"
)

// System-call numbers in the default ABI (SPARC: "ta 0" with the
// number in %g1; other machines name their registers through their
// TrapModel).
const (
	SysExit  = 1 // exit(arg0)
	SysWrite = 4 // write(arg0 fd, arg1 buf, arg2 len) -> ret bytes
)

// Fault describes an execution failure with its faulting address.
type Fault struct {
	PC  uint32
	Err error
}

func (f *Fault) Error() string { return fmt.Sprintf("sim: fault at %#x: %v", f.PC, f.Err) }

func (f *Fault) Unwrap() error { return f.Err }

// Common fault causes.
var (
	ErrIllegalInst  = errors.New("illegal instruction")
	ErrMisaligned   = errors.New("misaligned memory access")
	ErrUnmappedExec = errors.New("execution outside mapped text")
	ErrBadSyscall   = errors.New("unknown system call")
	ErrStepLimit    = errors.New("step limit exceeded")
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	// dirShift splits an address into a directory (the top 10 bits),
	// a page within it (the next 10) and a byte offset (the low 12).
	dirShift = 22
	dirPages = 1 << (dirShift - pageShift)
)

// Memory is a sparse, big-endian, byte-addressed 32-bit memory held
// in a two-level page table, so a lookup is two indexed loads and no
// hashing.  Directories and pages are created on first write and are
// never freed or moved: a page pointer stays valid for the life of
// the Memory.  The zero value is an empty memory.
type Memory struct {
	dirs [1 << (32 - dirShift)]*[dirPages]*[pageSize]byte

	// watches observe writes into address ranges; the translation
	// cache uses one over the text segment to catch self-modifying
	// edits.
	watches []memWatch
}

type memWatch struct {
	lo, hi uint32
	fn     func(addr, n uint32)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// WatchWrites registers fn to be called before every write that
// overlaps [lo, hi), and returns the watch's index in m.watches.
func (m *Memory) WatchWrites(lo, hi uint32, fn func(addr, n uint32)) int {
	m.watches = append(m.watches, memWatch{lo: lo, hi: hi, fn: fn})
	return len(m.watches) - 1
}

// notifyWrite reports a write of n >= 1 bytes at addr to every watch
// it overlaps.  It tests the last byte written, not the end, which
// wraps to zero for a write that reaches the top of memory.
func (m *Memory) notifyWrite(addr, n uint32) {
	for _, w := range m.watches {
		if addr < w.hi && addr+(n-1) >= w.lo {
			w.fn(addr, n)
		}
	}
}

// page returns the page holding addr.  Without create an unmapped
// page is nil; with it, the page (and its directory) is made.
func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	d := m.dirs[addr>>dirShift]
	if d == nil {
		if !create {
			return nil
		}
		d = new([dirPages]*[pageSize]byte)
		m.dirs[addr>>dirShift] = d
	}
	p := d[addr>>pageShift%dirPages]
	if p == nil && create {
		p = new([pageSize]byte)
		d[addr>>pageShift%dirPages] = p
	}
	return p
}

// zeroPage is what an unmapped page reads as.
var zeroPage [pageSize]byte

// view returns the page holding addr for reading: an unmapped page
// reads as zeroPage, and no page is created.
func (m *Memory) view(addr uint32) *[pageSize]byte {
	if p := m.page(addr, false); p != nil {
		return p
	}
	return &zeroPage
}

// ByteAt returns the byte at addr (unmapped memory reads zero).
func (m *Memory) ByteAt(addr uint32) byte { return m.view(addr)[addr%pageSize] }

// SetByte stores b at addr.
func (m *Memory) SetByte(addr uint32, b byte) {
	if len(m.watches) != 0 {
		m.notifyWrite(addr, 1)
	}
	m.page(addr, true)[addr%pageSize] = b
}

// Read reads width bytes big-endian, zero-extended.
func (m *Memory) Read(addr uint32, width int) uint64 {
	var v uint64
	for i := 0; i < width; i++ {
		v = v<<8 | uint64(m.ByteAt(addr+uint32(i)))
	}
	return v
}

// Write stores the low width bytes of v big-endian at addr.
func (m *Memory) Write(addr uint32, width int, v uint64) {
	for i := width - 1; i >= 0; i-- {
		m.SetByte(addr+uint32(i), byte(v))
		v >>= 8
	}
}

// Read32 reads a big-endian word.  Aligned reads never cross a page
// and index the page array directly instead of going byte-at-a-time
// through ByteAt.
func (m *Memory) Read32(addr uint32) uint32 {
	if addr&3 == 0 {
		p, o := m.view(addr), addr%pageSize
		return uint32(p[o])<<24 | uint32(p[o+1])<<16 | uint32(p[o+2])<<8 | uint32(p[o+3])
	}
	return uint32(m.Read(addr, 4))
}

// Write32 stores a big-endian word, with the same aligned in-page
// fast path as Read32.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&3 == 0 {
		if len(m.watches) != 0 {
			m.notifyWrite(addr, 4)
		}
		p := m.page(addr, true)
		o := addr % pageSize
		p[o], p[o+1], p[o+2], p[o+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		return
	}
	m.Write(addr, 4, uint64(v))
}

// ReadSegment fills dst from memory at addr, a page at a time
// (unmapped memory reads zero).
func (m *Memory) ReadSegment(addr uint32, dst []byte) {
	for len(dst) > 0 {
		n := copy(dst, m.view(addr)[addr%pageSize:])
		dst, addr = dst[n:], addr+uint32(n)
	}
}

// LoadSegment copies data into memory at addr, a page at a time.
// Watches see one (addr, n) write per page chunk, before it is stored.
func (m *Memory) LoadSegment(addr uint32, data []byte) {
	for len(data) > 0 {
		n := min(uint32(len(data)), pageSize-addr%pageSize)
		m.notifyWrite(addr, n)
		copy(m.page(addr, true)[addr%pageSize:], data[:n])
		data, addr = data[n:], addr+n
	}
}

// window is one SPARC register window's saved locals and ins, the
// representation rtl.ShiftWindow pushes and pops.
type window = rtl.RWindow

// archRegs is the CPU's register array, field by field: R, Y, PSR,
// FSR and F are views of the rtl.Regs slots the description's layout
// assigns (the integer file at 0..34, the float file from
// rtl.FloatSlot), and CPU.regs is the same memory as one array.
type archRegs struct {
	// R holds the current window's view: 0-7 globals, 8-15 outs,
	// 16-23 locals, 24-31 ins.
	R   [32]uint32
	Y   uint32
	PSR uint32
	FSR uint32
	F   [32]uint32
}

// The overlay of archRegs on rtl.Regs must be exact: the same size,
// with the float file at rtl.FloatSlot (a mismatch makes an array
// length negative or a type differ, and the package does not compile).
var (
	_ [1]struct{} = [unsafe.Sizeof(archRegs{}) - unsafe.Sizeof(rtl.Regs{}) + 1]struct{}{}
	_ [1]struct{} = [unsafe.Offsetof(archRegs{}.F) - rtl.FloatSlot*4 + 1]struct{}{}
)

// CPU is one processor of a described machine.
type CPU struct {
	archRegs

	PC, NPC uint32

	Mem *Memory

	// Stdout receives SysWrite output; nil discards it.
	Stdout io.Writer

	// Halted is set by SysExit; ExitCode carries its argument.
	Halted   bool
	ExitCode uint32

	// InstCount counts executed (non-annulled) instructions; the
	// Active Memory experiment's "slowdown" is a ratio of these.
	InstCount uint64
	// AnnulCount counts annulled (skipped) delay slots.
	AnnulCount uint64

	// TextStart/TextEnd bound executable memory; a pc outside
	// faults rather than interpreting data (catches editing bugs).
	TextStart, TextEnd uint32

	// OnExec, if set, observes every executed instruction — tests
	// use it to compute ground-truth branch/edge counts.  While set,
	// Run deoptimizes from the translation cache to single-step
	// interpretation so every instruction is observed.
	OnExec func(pc uint32, inst *machine.Inst)

	// Engine is the execution tier Run uses; the zero value is the
	// chained engine.
	Engine Engine
	// RoutineSync compiles routine programs inline on the engine
	// thread instead of the background worker — deterministic
	// promotion for tests and fuzzing.
	RoutineSync bool
	// RoutineHotThreshold overrides the block-enter count that
	// triggers routine compilation; 0 means the default.
	RoutineHotThreshold uint64

	dec *spawn.TableDecoder

	// Description-derived machine shape, bound once at New: the
	// instruction stride, the register layout spawn derived (file
	// names, sizes, the hardwired zero), and the architecture's trap
	// model.  Everything below is data read from the spawn description
	// or the arch registry — the substrate has no per-machine code
	// paths.
	isize  uint32
	arch   *machine.ArchInfo
	layout *rtl.RegLayout

	windows   []window
	annulNext bool

	// transfer state recorded by the RTL environment during one step
	delayedTarget   uint32
	hasDelayed      bool
	immediateTarget uint32
	hasImmediate    bool

	// env is the reusable rtl.Machine view of this CPU; rtlCtx the
	// reusable scratch state for compiled semantics, bound to env and
	// regs.
	env    cpuEnv
	rtlCtx rtl.Ctx

	// tc is the translation-cache engine state (see jit.go).
	tc *transCache

	// rt is the routine-tier state (see routine.go); rtOn caches the
	// per-run gate.  textHash content-addresses [TextStart,TextEnd) for the shared
	// routine-program cache; it is computed lazily at the first
	// routine request (after the write watch exists, so it can never
	// go stale unnoticed) and dropped on text invalidation.
	rt         *routineState
	rtOn       bool
	textHash   uint64
	textHashOK bool

	// prof, when non-nil, accumulates per-pc hotness and branch/trap
	// counters (see profile.go); both engines feed it.
	prof *Profile
}

// Decoder returns the CPU's instruction decoder (e.g. to bridge its
// interning statistics into a telemetry registry).
func (c *CPU) Decoder() *spawn.TableDecoder { return c.dec }

// New returns a CPU for dec's machine.  The register map, instruction
// stride, and trap ABI are derived from the spawn description and the
// arch registry (machine.RegisterArch), so any registered description
// runs on the same substrate.  New panics — loudly, at load time —
// when the description's shape is outside what the substrate
// supports, rather than mis-executing silently mid-block.
func New(dec *spawn.TableDecoder, mem *Memory) *CPU {
	c := &CPU{Mem: mem, dec: dec}
	c.bindDesc()
	c.env.c = c
	return c
}

// regs returns the CPU's registers as the slot array compiled
// semantics index.
func (c *CPU) regs() *rtl.Regs { return (*rtl.Regs)(unsafe.Pointer(&c.archRegs)) }

// bindDesc derives the CPU's machine shape from the spawn description
// and arch registry.  Every constraint violation is a panic: these are
// description bugs, and the one place to catch them is load, not the
// middle of a translated block.
func (c *CPU) bindDesc() {
	ws := c.dec.WordSize()
	if ws != 4 {
		panic(fmt.Sprintf("sim: %s has %d-byte instruction words; the execution substrate supports only fixed 4-byte instructions", c.dec.Name(), ws))
	}
	c.isize = uint32(ws)
	layout, err := c.dec.Desc().RegLayout()
	if err != nil {
		panic("sim: " + err.Error())
	}
	c.layout = layout
	arch, ok := machine.ArchByName(c.dec.Name())
	if !ok {
		panic(fmt.Sprintf("sim: no architecture registered for %q (import its package or call machine.RegisterArch)", c.dec.Name()))
	}
	c.arch = arch
}

// Reset prepares the CPU to run from entry with the given stack
// pointer.  Cached translation blocks are discarded (a reused CPU may
// be resuming on freshly loaded or edited text).
func (c *CPU) Reset(entry, sp uint32) {
	c.archRegs = archRegs{}
	c.R[c.arch.ABI.SP] = sp
	c.PC, c.NPC = entry, entry+c.isize
	c.Halted = false
	c.ExitCode = 0
	c.InstCount = 0
	c.AnnulCount = 0
	c.windows = c.windows[:0]
	c.annulNext = false
	c.InvalidateText()
}

// semOf returns a valid instruction's semantics: the CPU decodes only
// through spawn, which gives every valid word an InstSem.
func semOf(in *machine.Inst) *spawn.InstSem { return in.Sem().(*spawn.InstSem) }

// Step executes one instruction.  It returns nil when the program
// halts cleanly.
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	if c.TextEnd > c.TextStart && (c.PC < c.TextStart || c.PC >= c.TextEnd) {
		return &Fault{c.PC, ErrUnmappedExec}
	}
	if c.PC%c.isize != 0 {
		return &Fault{c.PC, ErrMisaligned}
	}
	word := c.Mem.Read32(c.PC)
	inst := c.dec.Decode(word)
	if !inst.Valid() {
		return &Fault{c.PC, fmt.Errorf("%w: %#08x", ErrIllegalInst, word)}
	}
	sem := semOf(inst)
	c.env.CompileEnv = sem.CompileEnv()
	c.hasDelayed, c.hasImmediate = false, false
	annulBefore := c.annulNext

	if c.OnExec != nil {
		c.OnExec(c.PC, inst)
	}
	if c.env.c == nil {
		c.env.c = c
	}
	if err := rtl.Exec(sem.Def.Sem, &c.env); err != nil {
		return &Fault{c.PC, err}
	}
	c.InstCount++
	if c.prof != nil {
		c.prof.record(c.PC, inst, c.hasImmediate || c.hasDelayed)
	}
	if c.Halted {
		return nil
	}
	c.finishStep(annulBefore)
	return nil
}

// finishStep advances the delayed-control-transfer pipeline after a
// successful semantic execution; annulBefore is annulNext as observed
// before the instruction ran.  Step and the translation-cache engine
// share it so architected behaviour is identical in both modes.
func (c *CPU) finishStep(annulBefore bool) {
	newPC := c.NPC
	newNPC := c.NPC + c.isize
	if c.hasImmediate {
		newPC = c.immediateTarget
		newNPC = newPC + c.isize
	} else if c.hasDelayed {
		newNPC = c.delayedTarget
	}
	c.PC, c.NPC = newPC, newNPC
	if c.annulNext != annulBefore { // this instruction annulled its slot
		c.annulNext = false
		c.AnnulCount++
		c.PC = c.NPC
		c.NPC += c.isize
	}
}

// Counters is a snapshot of the CPU's activity counters: architected
// execution counts plus translation-cache activity.
type Counters struct {
	Insts   uint64 // executed (non-annulled) instructions
	Annuls  uint64 // annulled (skipped) delay slots
	Builds  uint64 // superblocks translated
	Flushes uint64 // whole-cache invalidations
	Deopts  uint64 // interpreted steps taken because the pc had no translation

	ChainHits   uint64 // block transitions served by a direct chain link
	ChainMisses uint64 // static exits that had to re-probe the cache
	ICHits      uint64 // indirect exits served by the inline cache
	ICMisses    uint64 // indirect exits that had to re-probe the cache
	VictimHits  uint64 // conflict-evicted blocks promoted back instead of rebuilt

	Traces        uint64 // traces built from hot block heads
	TracesRetired uint64 // traces discarded by text invalidation

	RoutinesCompiled uint64 // routine programs installed by the routine tier
	TierPromotions   uint64 // routine compile requests issued by heat
	RoutineDeopts    uint64 // routine-tier deopts back to chained (self-modifying code)
}

// counterMetrics is the one table naming each Counters field in the
// telemetry registry; span marks the fields Run's trace span also
// carries.
var counterMetrics = [...]struct {
	name, span string
	field      func(*Counters) *uint64
}{
	{"sim.insts", "insts", func(k *Counters) *uint64 { return &k.Insts }},
	{"sim.annuls", "", func(k *Counters) *uint64 { return &k.Annuls }},
	{"sim.jit.builds", "jit_builds", func(k *Counters) *uint64 { return &k.Builds }},
	{"sim.jit.flushes", "", func(k *Counters) *uint64 { return &k.Flushes }},
	{"sim.jit.deopts", "jit_deopts", func(k *Counters) *uint64 { return &k.Deopts }},
	{"sim.jit.chain_hits", "jit_chain_hits", func(k *Counters) *uint64 { return &k.ChainHits }},
	{"sim.jit.chain_misses", "", func(k *Counters) *uint64 { return &k.ChainMisses }},
	{"sim.jit.ic_hits", "", func(k *Counters) *uint64 { return &k.ICHits }},
	{"sim.jit.ic_misses", "", func(k *Counters) *uint64 { return &k.ICMisses }},
	{"sim.jit.victim_hits", "", func(k *Counters) *uint64 { return &k.VictimHits }},
	{"sim.jit.traces", "jit_traces", func(k *Counters) *uint64 { return &k.Traces }},
	{"sim.jit.traces_retired", "", func(k *Counters) *uint64 { return &k.TracesRetired }},
	{"sim.jit.routines_compiled", "", func(k *Counters) *uint64 { return &k.RoutinesCompiled }},
	{"sim.jit.tier_promotions", "", func(k *Counters) *uint64 { return &k.TierPromotions }},
	{"sim.jit.routine_deopts", "", func(k *Counters) *uint64 { return &k.RoutineDeopts }},
}

// Counters returns the current counter snapshot.
func (c *CPU) Counters() Counters {
	var k Counters
	if c.tc != nil {
		k = c.tc.ctr
	}
	k.Insts, k.Annuls = c.InstCount, c.AnnulCount
	return k
}

// ResetCounters zeroes the translation-cache and routine-tier activity
// counters without discarding cached translations.  Reset zeroes only
// the architected InstCount/AnnulCount, so a reused CPU otherwise
// accumulates engine activity across Run invocations.
func (c *CPU) ResetCounters() {
	if c.tc != nil {
		c.tc.ctr = Counters{}
	}
}

// Run executes until halt or maxSteps instructions on the selected
// Engine.  Every tier but EngineInterp (and any run while OnExec
// demands single-step observation) goes through the translation
// cache: straight-line runs of text compile once into superblocks
// that execute without per-step decode or AST dispatch, falling back
// to Step for anything unusual.
//
// When process-wide telemetry is enabled, the run is traced as a
// "sim.Run" span and its counter deltas are added to the registry
// under "sim.*" names; when disabled, Run pays two atomic loads and
// allocates nothing.
func (c *CPU) Run(maxSteps uint64) error {
	tracer := telemetry.ActiveTracer()
	reg := telemetry.Default()
	if tracer == nil && reg == nil {
		return c.run(maxSteps)
	}
	before := c.Counters()
	span := tracer.Begin("sim.Run", "sim")

	err := c.run(maxSteps)

	after := c.Counters()
	for _, m := range counterMetrics {
		d := *m.field(&after) - *m.field(&before)
		if m.span != "" {
			span.Arg(m.span, d)
		}
		if reg != nil {
			reg.Counter(m.name).Add(d)
		}
	}
	if reg != nil {
		reg.Gauge("sim.jit.routine_queue").Set(int64(rtQueueDepthNow()))
	}
	span.End()
	return err
}

// run is Run's engine loop, free of telemetry bookkeeping.
func (c *CPU) run(maxSteps uint64) error {
	useJIT := c.Engine != EngineInterp && c.TextEnd > c.TextStart
	c.rtOn = useJIT && c.Engine == EngineRoutine && c.prof == nil
	if c.rtOn {
		c.ensureRT()
		c.rtNoteCandidate(c.PC) // the run's entry is a routine entry
	}
	for !c.Halted {
		if c.InstCount >= maxSteps {
			return &Fault{c.PC, ErrStepLimit}
		}
		if !useJIT || c.OnExec != nil {
			if err := c.Step(); err != nil {
				return err
			}
			continue
		}
		if c.rtOn {
			c.rtDrain() // install background results between steps
			if w := c.rt.word(c.PC); w != nil && c.NPC == c.PC+c.isize {
				if w.cand && w.prog == nil {
					// A candidate entry arriving at the dispatcher heats
					// up here, so promotion needs no throwaway
					// superblock translation first.  (>= because an
					// async request can be dropped on a full queue.)
					w.enters++
					if uint64(w.enters) >= c.rtThreshold() {
						c.rtRequest(c.PC)
					}
				}
				if w.prog != nil {
					executed, err := c.runRoutine(w.prog, w.idx, maxSteps)
					if err != nil {
						return err
					}
					if executed {
						continue
					}
					// Budget refusal before any work: fall through to the
					// per-instruction tiers, which hit the limit exactly.
				}
			}
		}
		b := c.block(c.PC)
		if len(b.insts) == 0 {
			// Unbuildable here (faulting pc, rare op): one interpreted
			// step surfaces the identical behaviour or fault — a
			// deoptimization, counted as such.
			c.tc.ctr.Deopts++
			if err := c.Step(); err != nil {
				return err
			}
			continue
		}
		if c.prof != nil {
			c.prof.blockEnters[b.pc]++
		}
		if err := c.runChained(b, maxSteps); err != nil {
			return err
		}
	}
	return nil
}

// runChained executes b and, on an engine that chains, keeps control
// inside translated code across block boundaries: each exit consults
// the per-site chain slot (a direct link for static exits, a
// monomorphic inline cache for indirect ones) and transfers straight
// to the cached successor when its anchor and generation still match.
// Misses fall back to the two-level cache probe; anything the cache
// cannot serve returns to the dispatcher.  Hot anchors are
// re-translated into traces, or promoted in place, on entry.
// EngineTranslated enters here too but does none of this: it runs one
// block on its buffered steps and returns.  Every loop iteration
// enters a block exactly at its anchor (the dispatcher, a chain hit,
// and a resolved miss all guarantee c.PC == b.pc), which is where
// exec starts.
func (c *CPU) runChained(b *tblock, maxSteps uint64) error {
	gen := c.tc.gen
	for {
		b.enters++
		if c.rtOn && b.enters == c.rtThreshold() {
			if w := c.rt.word(b.pc); w != nil && w.cand {
				c.rtRequest(b.pc)
				if w.prog != nil {
					return nil // synchronous install: re-enter via the dispatcher
				}
			}
		}
		if b.enters == traceHotThreshold && !b.trace && c.Engine.chains() {
			if t := c.buildTrace(b); t != nil {
				b = t
			} else {
				// No profitable extension, but the block is hot: still
				// re-translate it in place onto the direct tier.
				c.promote(b)
			}
		}
		last, stop, err := c.exec(b, maxSteps, gen)
		if err != nil || stop {
			return err
		}
		// Mid-run engine changes (an OnExec hook installed by a
		// syscall callback, say) deopt at block granularity, exactly
		// as the dispatcher loop would.
		if c.OnExec != nil || !c.Engine.chains() {
			return nil
		}
		ci := &b.insts[last]
		if s := &ci.exit; s.blk != nil && s.pc == c.PC && s.blk.gen == gen {
			if s.count != ^uint32(0) {
				s.count++
			}
			if ci.indirect {
				c.tc.ctr.ICHits++
			} else {
				c.tc.ctr.ChainHits++
			}
			b = s.blk
		} else {
			nb := c.chainTarget(ci, c.PC)
			if nb == nil {
				return nil
			}
			b = nb
		}
		if c.rtOn {
			// Promotion happens between steps: a finished background
			// compile or a transition onto an installed routine head
			// hands control to the dispatcher at a block boundary.
			if c.rt.mb.has.Load() {
				return nil
			}
			if w := c.rt.word(c.PC); w != nil && w.prog != nil && c.NPC == c.PC+c.isize {
				return nil
			}
		}
		if c.prof != nil {
			c.prof.blockEnters[b.pc]++
		}
	}
}

// chainTarget resolves a chain/IC miss at ci's exit: if the next pc
// is translatable the successor is installed in the exit slot
// (retargeting the slot — a megamorphic site simply keeps retargeting)
// and execution chains on; otherwise the dispatcher takes over.
func (c *CPU) chainTarget(ci *compiledInst, pc uint32) *tblock {
	if ci.indirect {
		c.tc.ctr.ICMisses++
	} else {
		c.tc.ctr.ChainMisses++
	}
	if pc%c.isize != 0 || pc < c.TextStart || pc >= c.TextEnd {
		return nil
	}
	nb := c.block(pc)
	if len(nb.insts) == 0 {
		return nil
	}
	ci.exit = exitSlot{blk: nb, pc: pc, count: 1}
	return nb
}

// cpuEnv adapts CPU to rtl.Machine, the reference interpreter's
// view.  Field and register-model queries go to the executing
// instruction's CompileEnv, which Step binds; compiled programs have
// folded them away, and reach the registers through the slot array
// (CPU.regs) instead of by name.
type cpuEnv struct {
	c *CPU
	rtl.CompileEnv
}

// ReadReg and WriteReg map a description register reference onto its
// slot in the CPU's register array through the layout bound at New;
// the hardwired zero reads 0 and drops writes.
func (e *cpuEnv) ReadReg(file string, idx int64) (uint64, error) {
	s, ok := e.c.layout.Slot(file, idx)
	switch {
	case !ok:
		return 0, rtl.UnknownReg("read", file, idx)
	case e.c.layout.IsZero(s):
		return 0, nil
	}
	return uint64(e.c.regs()[s]), nil
}

func (e *cpuEnv) WriteReg(file string, idx int64, v uint64) error {
	s, ok := e.c.layout.Slot(file, idx)
	switch {
	case !ok:
		return rtl.UnknownReg("write", file, idx)
	case !e.c.layout.IsZero(s):
		e.c.regs()[s] = uint32(v)
	}
	return nil
}

func (e *cpuEnv) ReadMem(addr uint64, width int) (uint64, error) {
	a := uint32(addr)
	if width == 4 && a&3 == 0 {
		return uint64(e.c.Mem.Read32(a)), nil
	}
	if width > 1 && a%uint32(width) != 0 {
		return 0, fmt.Errorf("%w: read%d at %#x", ErrMisaligned, width, a)
	}
	return e.c.Mem.Read(a, width), nil
}

func (e *cpuEnv) WriteMem(addr uint64, width int, v uint64) error {
	a := uint32(addr)
	if width == 4 && a&3 == 0 {
		e.c.Mem.Write32(a, uint32(v))
		return nil
	}
	if width > 1 && a%uint32(width) != 0 {
		return fmt.Errorf("%w: write%d at %#x", ErrMisaligned, width, a)
	}
	e.c.Mem.Write(a, width, v)
	return nil
}

func (e *cpuEnv) PC() uint64 { return uint64(e.c.PC) }

func (e *cpuEnv) SetPC(v uint64, delayed bool) {
	if delayed {
		e.c.delayedTarget = uint32(v)
		e.c.hasDelayed = true
	} else {
		e.c.immediateTarget = uint32(v)
		e.c.hasImmediate = true
	}
}

func (e *cpuEnv) Annul() { e.c.annulNext = true }

// Trap implements the system-call ABI described by the architecture's
// TrapModel (SPARC: "ta 0" with the number in %g1 and arguments in
// %o0..%o2; MIPS: "syscall" with $v0/$a0..; Alpha: "call_pal callsys"
// with $v0/$a0..).
func (e *cpuEnv) Trap(code uint64) error {
	t, r := &e.c.arch.Trap, &e.c.R
	if code != t.Code {
		return fmt.Errorf("sim: unhandled trap %d", code)
	}
	switch r[t.NumReg] {
	case t.SysExit:
		e.c.Halted, e.c.ExitCode = true, r[t.Args[0]]
		return nil
	case t.SysWrite:
		buf, n := r[t.Args[1]], r[t.Args[2]]
		if e.c.Stdout != nil {
			data := make([]byte, n)
			e.c.Mem.ReadSegment(buf, data)
			if _, err := e.c.Stdout.Write(data); err != nil {
				return fmt.Errorf("sim: write syscall: %w", err)
			}
		}
		r[t.Ret] = n
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrBadSyscall, r[t.NumReg])
	}
}

// Special implements the register-window builtins.
func (e *cpuEnv) Special(name string, args []uint64) error {
	return rtl.WindowSpecial(&e.c.R, &e.c.windows, name, args)
}
