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
// idiom.  It sees the word's decoded field values and returns the
// spec, in which it may have rewritten any part except Word, Fields
// and Sem.  The spec goes by value, so deriving a word does not move
// it to the heap.
//
// A Glue must be a pure function of (def, fields): a Memo derives each
// word once and serves the result to every decoder built on it, so a
// glue that read other state would see its first answer reused.
type Glue func(def *InstDef, fields machine.FieldVals, spec machine.InstSpec) machine.InstSpec

// memoBits sizes a Memo: MemoSlots = 1<<memoBits.
const memoBits = 16

// MemoSlots is the number of slots in a Memo.  It holds the ~12 k
// distinct words of sixteen 120-routine binaries at a 94% hit share,
// and it bounds a memo at the slot array (512 KiB) plus MemoSlots
// entries of ≈ 326 B each (the 296-byte entry with its instruction,
// operand forms and semantics handle, plus the ≈ 30 B share of field
// values and target functions measured over eight 120-routine SPARC
// binaries), ≈ 21 MiB, however many distinct words a long-running
// process decodes.
const MemoSlots = 1 << memoBits

// Memo is a fixed-size, direct-mapped memo of decoded instructions for
// one (description, glue) pair: word → the word's one machine.Inst and
// its InstSem.  Every TableDecoder built on one Memo returns its
// instructions, so a word seen by any executable, emulator or request
// in the process is derived once and represented by one object; a slot
// collision only costs a re-derivation, and a new object for the word
// it evicted.  It is safe for concurrent use and lock-free: a slot
// holds an immutable entry, swapped in by compare-and-swap.
type Memo struct {
	desc  *Desc
	glue  Glue
	slots [MemoSlots]atomic.Pointer[memoEntry]
	// derived counts misses: first sights and re-derivations after a
	// collision alike.
	derived atomic.Uint64
}

// memoEntry is one word's instruction and its semantics handle, which
// the instruction's Sem points at (an invalid word has none, and a
// zero sem).
type memoEntry struct {
	inst machine.Inst
	sem  InstSem
}

// NewMemo returns an empty memo deriving desc's words through glue,
// which may be nil.
func NewMemo(desc *Desc, glue Glue) *Memo { return &Memo{desc: desc, glue: glue} }

// Spec returns word's derived spec.  Its slices and semantics handle
// are shared: callers must not modify them.
func (m *Memo) Spec(word uint32) machine.InstSpec { return m.lookup(word).inst.Spec() }

// SubstRegs rewrites each register operand of word that names a
// register in assign to the register it maps to, in one simultaneous
// pass: every field is looked up once, so an assignment may map one
// placeholder onto another's name (paper §3.5: snippet bodies name
// placeholders that EEL replaces with scavenged dead registers).  Only
// operands the word's semantics read are touched, never the hardwired
// zero, and a field is rewritten only to a register of its own file.
func (m *Memo) SubstRegs(word uint32, assign map[machine.Reg]machine.Reg) uint32 {
	def := m.lookup(word).sem.Def
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
	return m.lookup(word).inst.Writes().Has(machine.RegPSR)
}

// memoSlot maps a word to its slot by Fibonacci hashing.  Words that
// differ in their low (immediate) bits land further apart than a
// random hash would put them, which lifts the hit share on real text:
// 95% against 92% for murmur3's finalizer on eight eeld binaries.
func memoSlot(word uint32) uint32 { return (word * 0x9e3779b1) >> (32 - memoBits) }

// lookup returns word's entry, deriving it on a miss.  Goroutines
// that derive one word at once agree on the entry the first of them
// stored, so a word has one instruction while its slot holds it.
func (m *Memo) lookup(word uint32) *memoEntry {
	slot := &m.slots[memoSlot(word)]
	old := slot.Load()
	if old != nil && old.inst.Word() == word {
		return old
	}
	e := m.derive(word)
	m.derived.Add(1)
	for !slot.CompareAndSwap(old, e) {
		if old = slot.Load(); old != nil && old.inst.Word() == word {
			return old
		}
	}
	return e
}

// derive builds word's entry: its instruction, with the full
// machine-independent spec, and for a valid word its semantics handle.
func (m *Memo) derive(word uint32) *memoEntry {
	e := &memoEntry{}
	spec := machine.InstSpec{Word: word, Cat: machine.CatInvalid}
	def := m.desc.DecodeRaw(word)
	if def == nil {
		e.inst = machine.MakeInst(spec)
		return e
	}
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
	spec.Addr, spec.HasAddr, spec.Def = eff.Addr, eff.HasAddr, eff.Def
	if m.glue != nil {
		spec = m.glue(def, fields, spec)
	}
	e.sem = InstSem{Def: def, Desc: m.desc, Fields: fields, word: word}
	spec.Sem = &e.sem
	e.inst = machine.MakeInst(spec)
	return e
}

// TableDecoder is a machine.Decoder generated from a description.
// It reproduces the paper's §3.4 optimization ("EEL allocates only
// one instruction to represent all instances of a particular machine
// instruction", reducing allocations roughly fourfold) process-wide:
// Decode returns the instruction its Memo holds for the word, shared
// with every other decoder of the same machine.  The emulator's
// compiled forms of a word (Compiled, CompiledDirect) are not shared:
// each decoder caches its own, so they live as long as the decoder's
// executable or CPU does.
//
// Decode is safe for concurrent use, takes no lock, and allocates
// nothing for a word the memo holds.  A mutex guards the compile
// caches and is held while a word compiles, so each word compiles
// exactly once per decoder.  SetIntern reconfigures the decoder and
// must not run concurrently with Decode.
type TableDecoder struct {
	memo    *Memo
	regName func(machine.Reg) string

	mu    sync.Mutex
	codes map[uint32]code

	decodes atomic.Uint64

	// noIntern disables sharing for the E6 ablation.
	noIntern bool
}

// NewDecoder builds a decoder that decodes through memo.  regName may
// be nil.
func NewDecoder(memo *Memo, regName func(machine.Reg) string) *TableDecoder {
	return &TableDecoder{memo: memo, regName: regName, codes: map[uint32]code{}}
}

// SetIntern toggles instruction-object sharing (ablation E6): with it
// off, every Decode returns a new copy of the word's instruction and
// semantics handle, one heap object per decode.
func (t *TableDecoder) SetIntern(on bool) { t.noIntern = !on }

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
	e := t.memo.lookup(word)
	if !t.noIntern {
		return &e.inst
	}
	c := &memoEntry{sem: e.sem}
	spec := e.inst.Spec()
	if spec.Sem != nil {
		spec.Sem = &c.sem
	}
	c.inst = machine.MakeInst(spec)
	return &c.inst
}

// SharingStats returns the decoder's decode requests and how many
// words its memo has derived for all the decoders that share it
// (experiment E6 counts the distinct instructions Decode returned).
func (t *TableDecoder) SharingStats() (decodes, derived uint64) {
	return t.decodes.Load(), t.memo.derived.Load()
}

// AttachTelemetry surfaces the decoder's sharing counters in reg as
// live gauges ("spawn.decodes" and the memo's "spawn.derived") without
// adding any cost to the Decode hot path: the existing atomics are
// sampled only when the registry takes a snapshot.  Every decode is
// one memo lookup, so derived against the decodes of the decoders
// sharing the memo shows how often a word was already derived.
func (t *TableDecoder) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("spawn.decodes", func() int64 { return int64(t.decodes.Load()) })
	reg.GaugeFunc("spawn.derived", func() int64 { return int64(t.memo.derived.Load()) })
}

// code is one word's compiled forms in one decoder, negative results
// included; done and directDone say which have been derived.
type code struct {
	prog             *rtl.Prog
	err              error
	direct           *rtl.Direct
	done, directDone bool
}

// Compiled returns s's semantics lowered once to an rtl.Prog
// specialized on its word's field values.  Each distinct machine word
// is compiled at most once per decoder, so the emulator's translation
// cache gets compiled semantics for free on re-decode.
func (t *TableDecoder) Compiled(s *InstSem) (*rtl.Prog, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.codes[s.word]
	if !c.done {
		// Taken once per distinct word: worth a trace span and a
		// registry tick so JIT warm-up is visible in -trace output.
		sp := telemetry.ActiveTracer().Begin("rtl.compile "+s.Def.Name, "rtl")
		telemetry.Default().Counter("rtl.compiles").Add(1)
		c.prog, c.err = rtl.Compile(s.Def.Sem, s)
		sp.End()
		c.done = true
		t.codes[s.word] = c
	}
	return c.prog, c.err
}

// CompiledDirect returns s's semantics lowered in direct-commit mode
// (rtl.CompileDirect), or nil when the commit reorder cannot be proven
// unobservable for this word.  The emulator's chained tier asks for it
// when a block turns hot, and its routine tier for every body word;
// the result — including the negative, so hot re-translation does not
// re-prove it — is cached per word and decoder like Compiled.  It
// reads pc from the Host (rtl.FlagPCRead); CompiledDirectAt folds pc
// instead.
func (t *TableDecoder) CompiledDirect(s *InstSem) *rtl.Direct {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.codes[s.word]
	if !c.directDone {
		telemetry.Default().Counter("rtl.compiles_direct").Add(1)
		c.direct, _ = rtl.CompileDirect(s.Def.Sem, s, nil)
		c.directDone = true
		t.codes[s.word] = c
	}
	return c.direct
}

// CompiledDirectAt returns s's direct program for its address pc:
// CompiledDirect's, unless that reads pc, and then the semantics
// lowered again with pc folded to pc (not cached: the address is the
// caller's).
func (t *TableDecoder) CompiledDirectAt(s *InstSem, pc uint32) *rtl.Direct {
	d := t.CompiledDirect(s)
	if d == nil || d.Flags()&rtl.FlagPCRead == 0 {
		return d
	}
	telemetry.Default().Counter("rtl.compiles_direct").Add(1)
	at := uint64(pc)
	d, _ = rtl.CompileDirect(s.Def.Sem, s, &at)
	return d
}

// InstSem is the semantics handle attached to decoded instructions;
// the emulator executes Def.Sem against the description's register
// model, or the compiled form a decoder's Compiled returns when it
// wants speed.  A memo entry owns one per valid word, shared like the
// instruction.
type InstSem struct {
	Def  *InstDef
	Desc *Desc
	// Fields holds the decoded field values the semantics are
	// specialized on.
	Fields machine.FieldVals

	// word keys the decoders' compile caches.
	word uint32
}

// CompileEnv returns the rtl.CompileEnv the instruction's semantics
// lower against: this word's field values and the description's
// register model.
func (s *InstSem) CompileEnv() rtl.CompileEnv { return s }

// Field returns the word's value of the named field.
func (s *InstSem) Field(name string) (int64, bool) {
	v, ok := s.Fields.Get(name)
	return int64(v), ok
}

// FieldWidth returns the named field's width in bits.
func (s *InstSem) FieldWidth(name string) (int, bool) {
	f, ok := s.Desc.Field(name)
	if !ok {
		return 0, false
	}
	return f.Width(), true
}

// RegAlias resolves a named register to its file and index.
func (s *InstSem) RegAlias(name string) (string, int64, bool) {
	a, ok := s.Desc.AliasFor(name)
	if !ok {
		return "", 0, false
	}
	return a.File, a.Index, true
}

// IsRegFile reports whether name is one of the description's
// register files.
func (s *InstSem) IsRegFile(name string) bool {
	rf, ok := s.Desc.File(name)
	return ok && rf.Count > 0
}

// Layout returns the description's register layout.
func (s *InstSem) Layout() *rtl.RegLayout { return s.Desc.layout }
