package spawn

import (
	"sync"
	"sync/atomic"

	"eel/internal/machine"
	"eel/internal/rtl"
	"eel/internal/telemetry"
)

// Glue is the hand-written, machine-specific refinement hook (the Go
// equivalent of the paper's Fig 6 annotated code): spawn derives a
// coarse category and effects from the description, and the glue
// resolves convention-level overloads — on SPARC, the three uses of
// jmpl (indirect call, return, indirect jump) and the system-call
// idiom.  It sees the word's decoded field values and may rewrite any
// part of the spec except Word, Fields and Sem.
//
// A Glue must be a pure function of (def, fields): a Memo derives each
// word once and serves the result to every decoder built on it, so a
// glue that read other state would see its first answer reused.
type Glue func(def *InstDef, fields machine.FieldVals, spec *machine.InstSpec)

// memoBits sizes a Memo: MemoSlots = 1<<memoBits.
const memoBits = 16

// MemoSlots is the number of slots in a Memo.  It holds the ~12 k
// distinct words of sixteen 120-routine binaries at a 94% hit share,
// and it bounds a memo at the slot array (512 KiB) plus MemoSlots
// entries of 170–260 B each, ≈ 17 MiB, however many distinct words a
// long-running process decodes.
const MemoSlots = 1 << memoBits

// Memo is a fixed-size, direct-mapped memo of derived specs for one
// (description, glue) pair: word → everything the decoder derives
// except the semantics handle.  Every TableDecoder built on one Memo
// reads through it, so a word seen by any executable, emulator or
// request in the process is derived once; a slot collision only costs
// a re-derivation.  It is safe for concurrent use and lock-free: a
// slot holds an immutable entry, and two goroutines deriving the same
// word both store an equivalent one.
type Memo struct {
	desc  *Desc
	glue  Glue
	slots [MemoSlots]atomic.Pointer[memoEntry]
	// derived counts misses: first sights and re-derivations after a
	// collision alike.
	derived atomic.Uint64
}

// memoEntry is one word's spec without its semantics handle, and the
// definition the word decoded to (nil for an invalid word).
type memoEntry struct {
	def  *InstDef
	spec machine.InstSpec
}

// NewMemo returns an empty memo deriving desc's words through glue,
// which may be nil.
func NewMemo(desc *Desc, glue Glue) *Memo { return &Memo{desc: desc, glue: glue} }

// Spec returns word's derived spec.  Its Sem is nil and its slices are
// shared: callers must not modify them.
func (m *Memo) Spec(word uint32) machine.InstSpec { return m.lookup(word).spec }

// SubstRegs rewrites each register operand of word that names a
// register in assign to the register it maps to, in one simultaneous
// pass: every field is looked up once, so an assignment may map one
// placeholder onto another's name (paper §3.5: snippet bodies name
// placeholders that EEL replaces with scavenged dead registers).  Only
// operands the word's semantics read are touched, never the hardwired
// zero, and a field is rewritten only to a register of its own file.
func (m *Memo) SubstRegs(word uint32, assign map[machine.Reg]machine.Reg) uint32 {
	def := m.lookup(word).def
	if def == nil {
		return word
	}
	out := word
	for i := range def.Info.Operands {
		o := &def.Info.Operands[i]
		if o.Class != Register || !o.Read || !o.Guard.Holds(word) {
			continue
		}
		idx := o.Field.Extract(word)
		if to, ok := assign[o.base+machine.Reg(idx)]; ok && !m.desc.isZeroReg(o.File, int64(idx)) {
			if v, ok := o.fit(int64(to)); ok {
				out = o.Field.Insert(out, v)
			}
		}
	}
	return out
}

// WritesPSR reports whether word clobbers the integer condition codes,
// which decides between a snippet's fast (cc-clobbering) and slow
// (cc-preserving) bodies: the Blizzard optimization of §5.
func (m *Memo) WritesPSR(word uint32) bool {
	return m.lookup(word).spec.Writes.Has(machine.RegPSR)
}

// memoSlot maps a word to its slot by Fibonacci hashing.  Words that
// differ in their low (immediate) bits land further apart than a
// random hash would put them, which lifts the hit share on real text:
// 95% against 92% for murmur3's finalizer on eight eeld binaries.
func memoSlot(word uint32) uint32 { return (word * 0x9e3779b1) >> (32 - memoBits) }

func (m *Memo) lookup(word uint32) *memoEntry {
	slot := &m.slots[memoSlot(word)]
	if e := slot.Load(); e != nil && e.spec.Word == word {
		return e
	}
	e := m.derive(word)
	slot.Store(e)
	m.derived.Add(1)
	return e
}

// derive computes the full machine-independent spec for word.
func (m *Memo) derive(word uint32) *memoEntry {
	e := &memoEntry{spec: machine.InstSpec{Word: word, Cat: machine.CatInvalid}}
	def := m.desc.DecodeRaw(word)
	if def == nil {
		return e
	}
	spec := &e.spec
	fields := m.desc.FieldVals(word)
	eff := m.desc.EffectsFor(def, fields)

	tgt, direct := m.desc.StaticTarget(def, fields, 0x1000)
	spec.Name = def.Name
	spec.Cat = Categorize(eff, direct)
	spec.Reads = eff.Reads
	spec.Writes = eff.Writes
	spec.ReadsMem = eff.ReadsMem
	spec.WritesMem = eff.WritesMem
	spec.MemWidth = eff.MemWidth()
	spec.DelaySlots = 0
	if eff.WritesPC && eff.LatePC {
		spec.DelaySlots = 1
	}
	spec.AnnulBit = eff.Annul
	spec.Conditional = eff.CondPC
	// A target spawn proved pc + K is folded to K once per word; any
	// other static target (MIPS j, a jmpl to a literal) stays on the
	// evaluator.
	switch {
	case direct && def.Info.PCRelative:
		// Both conditions are needed: PCRelative proves the shape
		// pc + K, and direct proves this word's K reads only fields
		// (or the hardwired zero), so the K found at 0x1000 holds at
		// every pc.
		k := tgt - 0x1000
		spec.Target = func(pc uint32) (uint32, bool) { return pc + k, true }
	case direct:
		d := m.desc
		spec.Target = func(pc uint32) (uint32, bool) { return d.StaticTarget(def, fields, pc) }
	}
	spec.Fields = fields
	if m.glue != nil {
		m.glue(def, fields, spec)
	}
	e.def = def
	return e
}

// TableDecoder is a machine.Decoder generated from a description.
// It interns instructions by machine word, reproducing the paper's
// §3.4 optimization ("EEL allocates only one instruction to
// represent all instances of a particular machine instruction",
// reducing allocations roughly fourfold); SharingStats exposes the
// measured ratio for experiment E6.  What an instruction is comes
// from the decoder's Memo, shared with other decoders of the same
// machine; the *machine.Inst and its InstSem, which carries the
// emulator's per-word compile caches, belong to this decoder alone.
//
// Decode is safe for concurrent use: a mutex guards the intern map and
// the slabs the instructions are carved from, and every word has one
// canonical *Inst per decoder.  Only the emulator decodes once an
// executable's text has been read, so the lock is rarely contended.
// SetIntern reconfigures the decoder and must not run concurrently
// with Decode.
type TableDecoder struct {
	memo    *Memo
	regName func(machine.Reg) string

	mu    sync.Mutex
	cache map[uint32]*machine.Inst
	insts slab[machine.Inst]
	sems  slab[InstSem]

	decodes atomic.Uint64
	unique  atomic.Uint64

	// noIntern disables interning for the E6 ablation.
	noIntern bool
}

// slabSize is how many instructions, and as many InstSems, one slab
// holds: 32 KiB in all.  A 120-routine binary's ≈1,600 distinct words
// fill thirteen.
const slabSize = 128

// slab carves values from fixed-size backing arrays.  A full array is
// replaced by a fresh one, never moved, so pointers already handed out
// stay valid (the rule cfg.Graph.Reserve follows).
type slab[T any] []T

func (s *slab[T]) next() *T {
	if len(*s) == 0 {
		*s = make([]T, slabSize)
	}
	p := &(*s)[0]
	*s = (*s)[1:]
	return p
}

// NewDecoder builds a decoder that derives its words through memo.
// regName may be nil.
func NewDecoder(memo *Memo, regName func(machine.Reg) string) *TableDecoder {
	return &TableDecoder{memo: memo, regName: regName, cache: map[uint32]*machine.Inst{}}
}

// SetIntern toggles instruction-object sharing (ablation E6).
func (t *TableDecoder) SetIntern(on bool) {
	t.noIntern = !on
	if !on {
		t.cache = map[uint32]*machine.Inst{}
		t.unique.Store(0)
	}
}

// Name returns the description's machine name.
func (t *TableDecoder) Name() string { return t.memo.desc.MachineName }

// WordSize returns the instruction width in bytes.
func (t *TableDecoder) WordSize() int { return t.memo.desc.WordBits / 8 }

// Desc returns the underlying description.
func (t *TableDecoder) Desc() *Desc { return t.memo.desc }

// RegName renders a register name.
func (t *TableDecoder) RegName(r machine.Reg) string {
	if t.regName != nil {
		return t.regName(r)
	}
	return machine.RegSet{}.Add(r).String()
}

// SubstRegs is Memo.SubstRegs on the decoder's memo.
func (t *TableDecoder) SubstRegs(word uint32, assign map[machine.Reg]machine.Reg) uint32 {
	return t.memo.SubstRegs(word, assign)
}

// WritesPSR is Memo.WritesPSR on the decoder's memo.
func (t *TableDecoder) WritesPSR(word uint32) bool { return t.memo.WritesPSR(word) }

// Decode returns the (shared) instruction for word.
func (t *TableDecoder) Decode(word uint32) *machine.Inst {
	t.decodes.Add(1)
	if t.noIntern {
		return t.newInst(word, new(machine.Inst), new(InstSem))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	inst, ok := t.cache[word]
	if !ok {
		inst = t.newInst(word, t.insts.next(), t.sems.next())
		t.cache[word] = inst
		t.unique.Add(1)
	}
	return inst
}

// newInst fills inst with word's instruction from its memoized spec,
// with sem as its semantics handle.
func (t *TableDecoder) newInst(word uint32, inst *machine.Inst, sem *InstSem) *machine.Inst {
	e := t.memo.lookup(word)
	spec := e.spec
	if e.def != nil {
		sem.Def, sem.Desc, sem.Fields = e.def, t.memo.desc, spec.Fields
		spec.Sem = sem
	}
	*inst = machine.MakeInst(spec)
	return inst
}

// SharingStats returns total decode requests and distinct
// instruction objects interned (experiment E6), and how many words the
// decoder's memo has derived for all the decoders that share it.
func (t *TableDecoder) SharingStats() (decodes, unique, derived uint64) {
	return t.decodes.Load(), t.unique.Load(), t.memo.derived.Load()
}

// AttachTelemetry surfaces the decoder's sharing counters in reg as
// live gauges ("spawn.decodes", "spawn.interned", and the memo's
// "spawn.derived") without adding any cost to the Decode hot path:
// the existing atomics are sampled only when the registry takes a
// snapshot.  Each word a decoder interns is one memo lookup, so
// derived against the words interned by the decoders sharing the memo
// shows how often a decoder found its word already derived.
func (t *TableDecoder) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("spawn.decodes", func() int64 { return int64(t.decodes.Load()) })
	reg.GaugeFunc("spawn.interned", func() int64 { return int64(t.unique.Load()) })
	reg.GaugeFunc("spawn.derived", func() int64 { return int64(t.memo.derived.Load()) })
}

// InstSem is the semantics handle attached to decoded instructions;
// the emulator executes Def.Sem against the description's register
// model, or the compiled form from Compiled when it wants speed.
type InstSem struct {
	Def  *InstDef
	Desc *Desc
	// Fields holds the decoded field values the semantics are
	// specialized on.
	Fields machine.FieldVals

	compiled derived[compiledSem]
	direct   derived[*rtl.Direct]
}

// derived caches one derivation on an interned word.  Concurrent
// callers may race to derive but always observe equivalent results.
type derived[T any] struct{ p atomic.Pointer[T] }

func (d *derived[T]) get(derive func() T) T {
	if v := d.p.Load(); v != nil {
		return *v
	}
	v := derive()
	d.p.Store(&v)
	return v
}

type compiledSem struct {
	prog *rtl.Prog
	err  error
}

// Compiled returns the instruction's semantics lowered once to an
// rtl.Prog specialized on this word's field values.  Because the
// decoder interns instructions by word, each distinct machine word is
// compiled at most once per decoder; the result is cached on the
// shared instruction object, so the emulator's translation cache gets
// compiled semantics for free on re-decode.
func (s *InstSem) Compiled() (*rtl.Prog, error) {
	cs := s.compiled.get(func() compiledSem {
		// Taken once per distinct word: worth a trace span and a
		// registry tick so JIT warm-up is visible in -trace output.
		sp := telemetry.ActiveTracer().Begin("rtl.compile "+s.Def.Name, "rtl")
		defer sp.End()
		telemetry.Default().Counter("rtl.compiles").Add(1)
		p, err := rtl.Compile(s.Def.Sem, semCompileEnv{s})
		return compiledSem{p, err}
	})
	return cs.prog, cs.err
}

// CompileEnv returns the rtl.CompileEnv the instruction's semantics
// lower against: this word's field values and the description's
// register model.
func (s *InstSem) CompileEnv() rtl.CompileEnv { return semCompileEnv{s} }

// CompiledDirect returns the instruction's semantics lowered in
// direct-commit mode (rtl.CompileDirect), or nil when the commit
// reorder cannot be proven unobservable for this word.  The emulator's
// chained tier asks for it when a block turns hot, and its routine
// tier for every body word; the result — including the negative, so
// hot re-translation does not re-prove it — is cached per interned
// word like Compiled.  It reads pc from the Host (rtl.FlagPCRead);
// CompiledDirectAt folds pc instead.
func (s *InstSem) CompiledDirect() *rtl.Direct {
	return s.direct.get(func() *rtl.Direct {
		telemetry.Default().Counter("rtl.compiles_direct").Add(1)
		p, _ := rtl.CompileDirect(s.Def.Sem, semCompileEnv{s}, nil)
		return p
	})
}

// CompiledDirectAt returns the word's direct program for its address
// pc: CompiledDirect's, unless that reads pc, and then the semantics
// lowered again with pc folded to pc (not cached: the address is the
// caller's).
func (s *InstSem) CompiledDirectAt(pc uint32) *rtl.Direct {
	d := s.CompiledDirect()
	if d == nil || d.Flags()&rtl.FlagPCRead == 0 {
		return d
	}
	telemetry.Default().Counter("rtl.compiles_direct").Add(1)
	at := uint64(pc)
	d, _ = rtl.CompileDirect(s.Def.Sem, semCompileEnv{s}, &at)
	return d
}

// semCompileEnv adapts an InstSem to rtl.CompileEnv: field values
// come from the decoded word, the register model from the
// description.
type semCompileEnv struct{ s *InstSem }

func (e semCompileEnv) Field(name string) (int64, bool) {
	v, ok := e.s.Fields.Get(name)
	return int64(v), ok
}

func (e semCompileEnv) FieldWidth(name string) (int, bool) {
	f, ok := e.s.Desc.Field(name)
	if !ok {
		return 0, false
	}
	return f.Width(), true
}

func (e semCompileEnv) RegAlias(name string) (string, int64, bool) {
	a, ok := e.s.Desc.AliasFor(name)
	if !ok {
		return "", 0, false
	}
	return a.File, a.Index, true
}

func (e semCompileEnv) IsRegFile(name string) bool {
	rf, ok := e.s.Desc.File(name)
	return ok && rf.Count > 0
}

func (e semCompileEnv) Layout() *rtl.RegLayout { return e.s.Desc.layout }
