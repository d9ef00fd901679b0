package spawn

import (
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

// TableBits sizes a Table: TableSlots = 1<<TableBits.
const TableBits = 16

// TableSlots is the number of slots in a Table.
const TableSlots = 1 << TableBits

// Table is a fixed-size, direct-mapped, lock-free cache of immutable
// entries: a slot holds at most one entry, swapped in by Put.  The
// caller picks a key's slot and checks the entry it loads from there
// against its key, so a hit is one atomic load and a compare.  A
// collision evicts the slot's entry, which only costs re-deriving it,
// and the table holds at most TableSlots entries however many keys a
// long-running process makes.  Memo and the emulator's routine-program
// cache are its instances.
type Table[E any] [TableSlots]atomic.Pointer[E]

// Put stores e in slot i and returns it, unless the slot holds an
// entry same accepts: then that entry, so goroutines that fill one key
// at once agree on the first entry stored.
func (t *Table[E]) Put(i uint32, e *E, same func(*E) bool) *E {
	for slot := &t[i%TableSlots]; ; {
		if old := slot.Load(); old != nil && same(old) {
			return old
		} else if slot.CompareAndSwap(old, e) {
			return e
		}
	}
}

// MemoSlots is the number of slots in a Memo.  It holds the ~12 k
// distinct words of sixteen 120-routine binaries at a 94% hit share,
// and it bounds a memo at the slot array (512 KiB) plus MemoSlots
// entries, however many distinct words a long-running process
// decodes.  An entry is ≈ 349 B derived (the 304-byte entry with its
// instruction, operand forms and semantics handle, plus its share of
// field values and target functions, measured over eight 120-routine
// SPARC binaries) and ≈ 382 B more once its word is compiled both
// ways, so a memo stays under ≈ 46 MiB with its compiled forms.
const MemoSlots = TableSlots

// Memo is a fixed-size, direct-mapped memo of decoded instructions for
// one (description, glue) pair: word → the word's one machine.Inst and
// its InstSem.  Every TableDecoder built on one Memo returns its
// instructions, so a word seen by any executable, emulator or request
// in the process is derived once and represented by one object; a slot
// collision only costs a re-derivation, and a new object for the word
// it evicted.  It is safe for concurrent use and lock-free: its slots
// are a Table.
type Memo struct {
	desc  *Desc
	glue  Glue
	slots Table[memoEntry]
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

// memoSlot maps a word to its slot by Fibonacci hashing.  Words that
// differ in their low (immediate) bits land further apart than a
// random hash would put them, which lifts the hit share on real text:
// 95% against 92% for murmur3's finalizer on eight eeld binaries.
func memoSlot(word uint32) uint32 { return (word * 0x9e3779b1) >> (32 - TableBits) }

// lookup returns word's entry, deriving it on a miss.  Goroutines
// that derive one word at once agree on the entry the first of them
// stored, so a word has one instruction while its slot holds it.
func (m *Memo) lookup(word uint32) *memoEntry {
	i := memoSlot(word)
	if e := m.slots[i].Load(); e != nil && e.inst.Word() == word {
		return e
	}
	m.derived.Add(1)
	return m.slots.Put(i, m.derive(word), func(e *memoEntry) bool { return e.inst.Word() == word })
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
	e.sem = InstSem{Def: def, Desc: m.desc, Fields: fields}
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
// compiled forms of a word hang off the same entry's InstSem, so they
// are shared too, and evicted with the entry.
//
// Decode is safe for concurrent use, takes no lock, and allocates
// nothing for a word the memo holds.  SetIntern reconfigures the
// decoder and must not run concurrently with Decode.
type TableDecoder struct {
	memo    *Memo
	regName func(machine.Reg) string

	decodes atomic.Uint64

	// noIntern disables sharing for the E6 ablation.
	noIntern bool
}

// NewDecoder builds a decoder that decodes through memo.  regName may
// be nil.
func NewDecoder(memo *Memo, regName func(machine.Reg) string) *TableDecoder {
	return &TableDecoder{memo: memo, regName: regName}
}

// SetIntern toggles instruction-object sharing (ablation E6): with it
// off, every Decode returns a new copy of the word's instruction and
// semantics handle, one heap object per decode, which compiles for
// itself.
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

// SubstRegs rewrites each register operand of word that names a
// register in assign to the register it maps to, in one simultaneous
// pass: every field is looked up once, so an assignment may map one
// placeholder onto another's name (paper §3.5: snippet bodies name
// placeholders that EEL replaces with scavenged dead registers).  Only
// operands the word's semantics read are touched, never the hardwired
// zero, and a field is rewritten only to a register of its own file.
func (t *TableDecoder) SubstRegs(word uint32, assign map[machine.Reg]machine.Reg) uint32 {
	def := t.memo.lookup(word).sem.Def
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
		if to, ok := assign[o.base+machine.Reg(idx)]; ok && !t.memo.desc.isZeroReg(o.File, int64(idx)) {
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
func (t *TableDecoder) WritesPSR(word uint32) bool {
	return t.memo.lookup(word).inst.Writes().Has(machine.RegPSR)
}

// Decode returns the (shared) instruction for word.
func (t *TableDecoder) Decode(word uint32) *machine.Inst {
	t.decodes.Add(1)
	e := t.memo.lookup(word)
	if !t.noIntern {
		return &e.inst
	}
	c := &memoEntry{sem: InstSem{Def: e.sem.Def, Desc: e.sem.Desc, Fields: e.sem.Fields}}
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

// InstSem is the semantics handle attached to decoded instructions;
// the emulator executes Def.Sem against the description's register
// model, or the compiled forms it holds when it wants speed.  A memo
// entry owns one per valid word, shared like the instruction, so a
// word compiles once per process while its slot holds it.
type InstSem struct {
	Def  *InstDef
	Desc *Desc
	// Fields holds the decoded field values the semantics are
	// specialized on.
	Fields machine.FieldVals

	// prog and direct are the compiled forms, each stored once by
	// compare-and-swap and read lock-free; direct holds noDirect for
	// a word CompileDirect refuses.
	prog   atomic.Pointer[compiled]
	direct atomic.Pointer[rtl.Direct]
}

// compiled is a word's buffered program, or why it did not lower.
type compiled struct {
	prog *rtl.Prog
	err  error
}

// noDirect marks a word's direct program as refused, so a hot
// re-translation does not re-prove it.
var noDirect = new(rtl.Direct)

// Compiled returns s's semantics lowered once to an rtl.Prog
// specialized on its word's field values.
func (s *InstSem) Compiled() (*rtl.Prog, error) {
	c := s.prog.Load()
	if c == nil {
		// Taken once per distinct word: worth a trace span and a
		// registry tick so JIT warm-up is visible in -trace output.
		sp := telemetry.ActiveTracer().Begin("rtl.compile "+s.Def.Name, "rtl")
		p, err := rtl.Compile(s.Def.Sem, s)
		sp.End()
		c = keep(&s.prog, &compiled{p, err}, "rtl.compiles")
	}
	return c.prog, c.err
}

// CompiledDirect returns s's semantics lowered in direct-commit mode
// (rtl.CompileDirect), or nil when the commit reorder cannot be proven
// unobservable for this word.  The emulator's chained tier asks for it
// when a block turns hot, and its routine tier for every body word;
// the result, the negative one included, is kept like Compiled's.  It
// reads pc from the Host (rtl.FlagPCRead); CompiledDirectAt folds pc
// instead.
func (s *InstSem) CompiledDirect() *rtl.Direct {
	d := s.direct.Load()
	if d == nil {
		if d, _ = rtl.CompileDirect(s.Def.Sem, s, nil); d == nil {
			d = noDirect
		}
		d = keep(&s.direct, d, "rtl.compiles_direct")
	}
	if d == noDirect {
		return nil
	}
	return d
}

// keep stores v in cell unless the cell holds a value already, and
// returns the value the cell then holds, so goroutines that compile
// one word at once keep the first program stored.  counter counts the
// values stored: one per word.
func keep[T any](cell *atomic.Pointer[T], v *T, counter string) *T {
	if cell.CompareAndSwap(nil, v) {
		telemetry.Default().Counter(counter).Add(1)
		return v
	}
	return cell.Load()
}

// CompiledDirectAt returns s's direct program for its address pc:
// CompiledDirect's, unless that reads pc, and then the semantics
// lowered again with pc folded to pc (not kept: the address is the
// caller's).
func (s *InstSem) CompiledDirectAt(pc uint32) *rtl.Direct {
	d := s.CompiledDirect()
	if d == nil || d.Flags()&rtl.FlagPCRead == 0 {
		return d
	}
	telemetry.Default().Counter("rtl.compiles_direct").Add(1)
	at := uint64(pc)
	d, _ = rtl.CompileDirect(s.Def.Sem, s, &at)
	return d
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
