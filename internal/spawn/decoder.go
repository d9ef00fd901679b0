package spawn

import (
	"sort"
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
// part of the spec except Word.
type Glue func(def *InstDef, fields map[string]uint32, spec *machine.InstSpec)

// TableDecoder is a machine.Decoder generated from a description.
// It interns instructions by machine word, reproducing the paper's
// §3.4 optimization ("EEL allocates only one instruction to
// represent all instances of a particular machine instruction",
// reducing allocations roughly fourfold); SharingStats exposes the
// measured ratio for experiment E6.
//
// Decode is safe for concurrent use: the intern cache is a sync.Map,
// so parallel analysis workers share one decoder (and one instruction
// object per distinct word) without serializing on a lock.  Two
// workers racing on the same uncached word may both derive the spec,
// but LoadOrStore guarantees a single canonical *Inst survives.
// SetIntern and ResetStats reconfigure the decoder and must not run
// concurrently with Decode.
type TableDecoder struct {
	desc    *Desc
	glue    Glue
	regName func(machine.Reg) string
	// fields is the description's fields in name order, the order
	// Inst.Fields reports them in.
	fields []Field

	cache   atomic.Pointer[sync.Map] // uint32 → *machine.Inst
	decodes atomic.Uint64
	unique  atomic.Uint64

	// interning can be disabled for the E6 ablation.
	intern atomic.Bool
}

// NewDecoder builds a decoder for desc.  glue and regName may be nil.
func NewDecoder(desc *Desc, glue Glue, regName func(machine.Reg) string) *TableDecoder {
	t := &TableDecoder{
		desc:    desc,
		glue:    glue,
		regName: regName,
		fields:  append([]Field(nil), desc.Fields...),
	}
	sort.Slice(t.fields, func(i, j int) bool { return t.fields[i].Name < t.fields[j].Name })
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
func (t *TableDecoder) Name() string { return t.desc.MachineName }

// WordSize returns the instruction width in bytes.
func (t *TableDecoder) WordSize() int { return t.desc.WordBits / 8 }

// Desc returns the underlying description.
func (t *TableDecoder) Desc() *Desc { return t.desc }

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
		return machine.NewInst(t.specFor(word))
	}
	m := t.cache.Load()
	if v, ok := m.Load(word); ok {
		return v.(*machine.Inst)
	}
	inst := machine.NewInst(t.specFor(word))
	if prev, loaded := m.LoadOrStore(word, inst); loaded {
		return prev.(*machine.Inst)
	}
	t.unique.Add(1)
	return inst
}

// SharingStats returns total decode requests and distinct
// instruction objects interned (experiment E6).
func (t *TableDecoder) SharingStats() (decodes, unique uint64) {
	return t.decodes.Load(), t.unique.Load()
}

// AttachTelemetry surfaces the decoder's sharing counters in reg as
// live gauges ("spawn.decodes", "spawn.interned") without adding any
// cost to the Decode hot path: the existing atomics are sampled only
// when the registry takes a snapshot.
func (t *TableDecoder) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("spawn.decodes", func() int64 { return int64(t.decodes.Load()) })
	reg.GaugeFunc("spawn.interned", func() int64 { return int64(t.unique.Load()) })
}

// ResetStats clears decode counters and the intern cache.
func (t *TableDecoder) ResetStats() {
	t.decodes.Store(0)
	t.unique.Store(0)
	t.cache.Store(&sync.Map{})
}

// specFor derives the full machine-independent spec for word.
func (t *TableDecoder) specFor(word uint32) machine.InstSpec {
	spec := machine.InstSpec{Word: word, Cat: machine.CatInvalid}
	def := t.desc.DecodeRaw(word)
	if def == nil {
		return spec
	}
	fields := t.desc.FieldVals(word)
	eff := t.desc.EffectsFor(def, fields)

	tgt, direct := t.desc.StaticTarget(def, fields, 0x1000)
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
		d, f := t.desc, fields
		spec.Target = func(pc uint32) (uint32, bool) { return d.StaticTarget(def, f, pc) }
	}
	spec.Fields = make([]machine.Field, len(t.fields))
	for i, f := range t.fields {
		spec.Fields[i] = machine.Field{Name: f.Name, Val: fields[f.Name]}
	}
	spec.Sem = &InstSem{Def: def, Desc: t.desc, Fields: fields}
	if t.glue != nil {
		t.glue(def, fields, &spec)
	}
	return spec
}

// InstSem is the semantics handle attached to decoded instructions;
// the emulator executes Def.Sem against the description's register
// model, or the compiled form from Compiled when it wants speed.
type InstSem struct {
	Def  *InstDef
	Desc *Desc
	// Fields holds the decoded field values the semantics are
	// specialized on.
	Fields map[string]uint32

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
	v, ok := e.s.Fields[name]
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
