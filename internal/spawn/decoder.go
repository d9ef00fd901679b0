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
// Decode is safe for concurrent use: the intern cache is a sync.Map,
// so parallel analysis workers share one decoder (and one instruction
// object per distinct word) without serializing on a lock.  Two
// workers racing on the same uncached word may both build an
// instruction, but LoadOrStore guarantees a single canonical *Inst
// survives.  SetIntern reconfigures the decoder and must not run
// concurrently with Decode.
type TableDecoder struct {
	memo    *Memo
	regName func(machine.Reg) string

	cache   atomic.Pointer[sync.Map] // uint32 → *machine.Inst
	decodes atomic.Uint64
	unique  atomic.Uint64

	// interning can be disabled for the E6 ablation.
	intern atomic.Bool
}

// NewDecoder builds a decoder that derives its words through memo.
// regName may be nil.
func NewDecoder(memo *Memo, regName func(machine.Reg) string) *TableDecoder {
	t := &TableDecoder{memo: memo, regName: regName}
	t.cache.Store(&sync.Map{})
	t.intern.Store(true)
	return t
}

// SetIntern toggles instruction-object sharing (ablation E6).
func (t *TableDecoder) SetIntern(on bool) {
	t.intern.Store(on)
	if !on {
		t.cache.Store(&sync.Map{})
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

// Decode returns the (shared) instruction for word.
func (t *TableDecoder) Decode(word uint32) *machine.Inst {
	t.decodes.Add(1)
	if !t.intern.Load() {
		return t.newInst(word)
	}
	m := t.cache.Load()
	if v, ok := m.Load(word); ok {
		return v.(*machine.Inst)
	}
	inst := t.newInst(word)
	if prev, loaded := m.LoadOrStore(word, inst); loaded {
		return prev.(*machine.Inst)
	}
	t.unique.Add(1)
	return inst
}

// newInst builds an instruction for word from its memoized spec and a
// semantics handle of this decoder's own.
func (t *TableDecoder) newInst(word uint32) *machine.Inst {
	e := t.memo.lookup(word)
	spec := e.spec
	if e.def != nil {
		spec.Sem = &InstSem{Def: e.def, Desc: t.memo.desc, Fields: spec.Fields}
	}
	return machine.NewInst(spec)
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

	compiled atomic.Pointer[compiledSem]
	direct   atomic.Pointer[directSem]
}

type compiledSem struct {
	prog *rtl.Prog
	err  error
}

// directSem caches the direct-commit lowering; prog is nil when the
// semantics are not direct-commitable (the cached negative keeps hot
// re-translation from re-proving that every time).
type directSem struct {
	prog *rtl.Prog
}

// Compiled returns the instruction's semantics lowered once to an
// rtl.Prog specialized on this word's field values.  Because the
// decoder interns instructions by word, each distinct machine word is
// compiled at most once per decoder; the result is cached on the
// shared instruction object, so the emulator's translation cache gets
// compiled semantics for free on re-decode.  Concurrent callers may
// race to compile but always observe an equivalent program.
func (s *InstSem) Compiled() (*rtl.Prog, error) {
	if cs := s.compiled.Load(); cs != nil {
		return cs.prog, cs.err
	}
	// Slow path, taken once per distinct word: worth a trace span and
	// a registry tick so JIT warm-up is visible in -trace output.
	sp := telemetry.ActiveTracer().Begin("rtl.compile "+s.Def.Name, "rtl")
	cs := &compiledSem{}
	cs.prog, cs.err = rtl.Compile(s.Def.Sem, semCompileEnv{s})
	sp.End()
	telemetry.Default().Counter("rtl.compiles").Add(1)
	s.compiled.Store(cs)
	return cs.prog, cs.err
}

// SemNode exposes the instruction's raw semantic AST.  The routine-
// tier compiler walks it to recover the exact node a faulting builtin
// would report, so routine-compiled faults render the same error
// strings as the interpreter.
func (s *InstSem) SemNode() rtl.Node { return s.Def.Sem }

// CompiledDirect returns the instruction's semantics lowered in
// direct-commit mode (rtl.CompileDirect), or nil when the commit
// reorder cannot be proven unobservable for this word.  The emulator's
// hot tier asks for it only when a block turns hot, and the result —
// including the negative — is cached per interned word like Compiled.
func (s *InstSem) CompiledDirect() *rtl.Prog {
	if ds := s.direct.Load(); ds != nil {
		return ds.prog
	}
	ds := &directSem{}
	if p, err := rtl.CompileDirect(s.Def.Sem, semCompileEnv{s}); err == nil {
		ds.prog = p
	}
	telemetry.Default().Counter("rtl.compiles_direct").Add(1)
	s.direct.Store(ds)
	return ds.prog
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
