// Package machine defines EEL's machine-independent instruction
// abstraction (paper §3.4).  An Inst is an architecture-neutral
// description of one machine instruction: its functional category,
// the registers it reads and writes, its memory behaviour, its
// internal control flow (delay slots and annulment), and — when the
// instruction is a direct control transfer — its target address.
//
// Tools analyze Inst values in place of raw machine words, so the
// same analysis code runs unmodified on any architecture for which a
// spawn description exists (SPARC and a MIPS-like machine in this
// repository).
package machine

import (
	"fmt"
	"math/bits"
)

// Reg names a machine register in a flat, machine-independent space.
// The integer register file occupies [0, 32); special registers and
// the floating-point file occupy fixed slots above it so that a
// RegSet can represent any mixture as a bitset.
type Reg uint16

// Well-known register slots.  Concrete machines map their registers
// onto this space through their spawn description.
const (
	// RegY is the SPARC Y register (multiply/divide extension).
	RegY Reg = 32
	// RegPSR holds the integer condition codes (SPARC icc in
	// PSR bits 23:20).  Liveness tracks it like any other register,
	// which is what enables the Blizzard condition-code
	// optimization (paper §5).
	RegPSR Reg = 33
	// RegFSR holds the floating-point condition codes (fcc).
	RegFSR Reg = 34
	// RegPC is the program counter.
	RegPC Reg = 35
	// FloatBase is the first floating-point register; %fN maps to
	// FloatBase+N.
	FloatBase Reg = 64
	// NumRegs bounds the register space.
	NumRegs = 128
)

// IsInt reports whether r is a general-purpose integer register.
func (r Reg) IsInt() bool { return r < 32 }

// IsFloat reports whether r is a floating-point register.
func (r Reg) IsFloat() bool { return r >= FloatBase && r < FloatBase+32 }

// RegSet is a set of registers, represented as a 128-bit bitset.
// The zero value is the empty set.
type RegSet struct {
	lo, hi uint64
}

// Add returns the set with r added.
func (s RegSet) Add(r Reg) RegSet {
	if r < 64 {
		s.lo |= 1 << r
	} else if r < NumRegs {
		s.hi |= 1 << (r - 64)
	}
	return s
}

// Remove returns the set with r removed.
func (s RegSet) Remove(r Reg) RegSet {
	if r < 64 {
		s.lo &^= 1 << r
	} else if r < NumRegs {
		s.hi &^= 1 << (r - 64)
	}
	return s
}

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	if r < 64 {
		return s.lo&(1<<r) != 0
	}
	if r < NumRegs {
		return s.hi&(1<<(r-64)) != 0
	}
	return false
}

// Union returns the union of s and t.
func (s RegSet) Union(t RegSet) RegSet { return RegSet{s.lo | t.lo, s.hi | t.hi} }

// Intersect returns the intersection of s and t.
func (s RegSet) Intersect(t RegSet) RegSet { return RegSet{s.lo & t.lo, s.hi & t.hi} }

// Minus returns s with every register of t removed.
func (s RegSet) Minus(t RegSet) RegSet { return RegSet{s.lo &^ t.lo, s.hi &^ t.hi} }

// IsEmpty reports whether the set contains no registers.
func (s RegSet) IsEmpty() bool { return s.lo == 0 && s.hi == 0 }

// Equal reports whether s and t contain the same registers.
func (s RegSet) Equal(t RegSet) bool { return s == t }

// Len returns the number of registers in the set.
func (s RegSet) Len() int { return bits.OnesCount64(s.lo) + bits.OnesCount64(s.hi) }

// First returns the lowest-numbered register in the set; ok is false
// when the set is empty.
func (s RegSet) First() (r Reg, ok bool) {
	switch {
	case s.lo != 0:
		return Reg(bits.TrailingZeros64(s.lo)), true
	case s.hi != 0:
		return 64 + Reg(bits.TrailingZeros64(s.hi)), true
	}
	return 0, false
}

// ForEach calls f for every register in the set, in increasing order.
func (s RegSet) ForEach(f func(Reg)) {
	for w, base := s.lo, Reg(0); ; w, base = s.hi, 64 {
		for x := w; x != 0; x &= x - 1 {
			f(base + Reg(bits.TrailingZeros64(x)))
		}
		if base == 64 {
			return
		}
	}
}

// Regs returns the set's members as a sorted slice.
func (s RegSet) Regs() []Reg {
	out := make([]Reg, 0, s.Len())
	s.ForEach(func(r Reg) { out = append(out, r) })
	return out
}

// IntRegs returns the integer register file, [0, 32).
func IntRegs() RegSet { return RegSet{lo: 1<<32 - 1} }

// FloatRegs returns the floating-point register file, FloatBase and
// the 31 slots above it.
func FloatRegs() RegSet { return RegSet{hi: 1<<32 - 1} }

// Words returns the set's raw 128-bit representation (for
// serialization; see RegSetFromWords).
func (s RegSet) Words() (lo, hi uint64) { return s.lo, s.hi }

// RegSetFromWords rebuilds a set from its Words representation.
func RegSetFromWords(lo, hi uint64) RegSet { return RegSet{lo: lo, hi: hi} }

// NewRegSet builds a set from the given registers.
func NewRegSet(regs ...Reg) RegSet {
	var s RegSet
	for _, r := range regs {
		s = s.Add(r)
	}
	return s
}

// String renders the set as {r0,r1,...} using raw slot numbers.
func (s RegSet) String() string {
	out := "{"
	first := true
	s.ForEach(func(r Reg) {
		if !first {
			out += ","
		}
		first = false
		out += fmt.Sprintf("r%d", r)
	})
	return out + "}"
}

// Category classifies an instruction's behaviour (paper §3.4).  The
// categories are common to RISC machines, so tools dispatch on them
// instead of on machine opcodes.
type Category int

// Instruction categories.
const (
	// CatInvalid marks a word that decodes to no instruction — in
	// EEL's analysis, reachable invalid words mean "this routine
	// contains data" (paper §3.1 step 4).
	CatInvalid Category = iota
	// CatCompute is an ordinary computation (ALU, FPU, ...).
	CatCompute
	// CatBranch is a conditional pc-relative control transfer.
	CatBranch
	// CatJumpDirect is an unconditional transfer whose target is
	// computable from the instruction alone.
	CatJumpDirect
	// CatJumpIndirect is an unconditional transfer through one or
	// more registers (e.g. SPARC jmpl).
	CatJumpIndirect
	// CatCallDirect is a direct subroutine call.
	CatCallDirect
	// CatCallIndirect is a call through a register.
	CatCallIndirect
	// CatReturn is a subroutine return.
	CatReturn
	// CatLoad reads memory.
	CatLoad
	// CatStore writes memory.
	CatStore
	// CatLoadStore both reads and writes memory (e.g. swap or an
	// autoincrement access; paper §3.4 derives such spanning
	// categories by combining classes).
	CatLoadStore
	// CatSystem is a trap / system call.
	CatSystem
)

var catNames = [...]string{
	CatInvalid:      "invalid",
	CatCompute:      "compute",
	CatBranch:       "branch",
	CatJumpDirect:   "jump",
	CatJumpIndirect: "ijump",
	CatCallDirect:   "call",
	CatCallIndirect: "icall",
	CatReturn:       "return",
	CatLoad:         "load",
	CatStore:        "store",
	CatLoadStore:    "loadstore",
	CatSystem:       "system",
}

// String returns the category's short name.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// IsControl reports whether the category transfers control.
func (c Category) IsControl() bool {
	switch c {
	case CatBranch, CatJumpDirect, CatJumpIndirect, CatCallDirect, CatCallIndirect, CatReturn:
		return true
	}
	return false
}

// IsCall reports whether the category is a subroutine call.
func (c Category) IsCall() bool { return c == CatCallDirect || c == CatCallIndirect }

// IsMemory reports whether the category touches memory.
func (c Category) IsMemory() bool {
	return c == CatLoad || c == CatStore || c == CatLoadStore
}

// Inst is one machine-independent instruction.  To reproduce the
// paper's allocation optimization (§3.4: "EEL allocates only one
// instruction to represent all instances of a particular machine
// instruction", reducing allocations ≈4×), decoders intern Inst
// values by machine word: every occurrence of the same 32-bit word
// shares one *Inst, and spawn's decoders share it process-wide.  Inst
// is therefore immutable after decoding and carries no per-address
// state; position-dependent questions (such as a branch target) take
// the pc as an argument.
type Inst struct{ spec InstSpec }

// Field is one decoded instruction field.
type Field struct {
	Name string
	Val  uint32
}

// FieldVals is one instruction word's decoded field values: Vals[i]
// is the value of the field named Names[i].  A description shares one
// sorted Names slice among all its words, so a word owns only its
// Vals.  Both slices are read-only once decoded.
type FieldVals struct {
	Names []string
	Vals  []uint32
}

// Get returns the value of the named field.
func (f FieldVals) Get(name string) (uint32, bool) {
	for i, n := range f.Names {
		if n == name {
			return f.Vals[i], true
		}
	}
	return 0, false
}

// Addr is an address operand a decoder derived from a word's
// semantics: Base plus Index when HasIndex, else Base plus Disp.  It
// is the first address a load or store touches, or an indirect
// transfer's target.
type Addr struct {
	Disp        int64
	Base, Index Reg
	// Link is the register an indirect transfer writes its return
	// address to (the hardwired zero included); Data is the register
	// whose value the word's first memory write stores.
	Link, Data                 Reg
	HasIndex, HasLink, HasData bool
}

// DefOp is the operation of a Def.
type DefOp uint8

// Def operations.  B stands for register B when HasB, else K.
const (
	DefNone  DefOp = iota
	DefConst       // K
	DefAdd         // A + B
	DefSub         // A - B
	DefOr          // A | B
	DefShl         // A << (B mod 32), rtl's shl
	DefLoad        // M[A + B]{Width}, zero-extended
)

// Def is what a word's one integer-register assignment computes,
// derived by a decoder from the word's semantics.  Dst may be the
// hardwired zero.
type Def struct {
	K         int64
	Dst, A, B Reg
	Op        DefOp
	HasB      bool
	Width     uint8
}

// InstSpec carries everything a decoder derived for an instruction
// word; NewInst freezes it into an immutable Inst.
type InstSpec struct {
	Word        uint32
	Name        string
	Cat         Category
	Reads       RegSet
	Writes      RegSet
	ReadsMem    bool
	WritesMem   bool
	MemWidth    int
	DelaySlots  int
	AnnulBit    bool
	Conditional bool
	// Target computes the instruction's static target given its
	// address; ok is false for indirect transfers.
	Target func(pc uint32) (uint32, bool)
	// Fields holds the decoded instruction-field values (rd, rs1,
	// simm13, ...) for machine-specific glue and snippet editing.
	Fields FieldVals
	// Addr, when HasAddr, and Def, when its Op is not DefNone, are
	// the word's operand forms.
	Addr    Addr
	HasAddr bool
	Def     Def
	// Sem is an opaque handle on the instruction's register-transfer
	// semantics, consumed by the emulator.  Analyses never touch it.
	Sem any
}

// NewInst builds an immutable instruction from a decoder's spec.
func NewInst(spec InstSpec) *Inst { return &Inst{spec} }

// MakeInst is NewInst by value, for a decoder that keeps its
// instructions inside structures of its own.
func MakeInst(spec InstSpec) Inst { return Inst{spec} }

// Spec returns the spec the instruction was built from.  Its slices
// and semantics handle are shared: callers must not modify them.
func (i *Inst) Spec() InstSpec { return i.spec }

// Word returns the raw machine word.
func (i *Inst) Word() uint32 { return i.spec.Word }

// Name returns the mnemonic ("add", "bne", "jmpl", ...), or "" for
// invalid words.
func (i *Inst) Name() string { return i.spec.Name }

// Category returns the instruction's functional category.
func (i *Inst) Category() Category { return i.spec.Cat }

// Reads returns the registers the instruction reads.
func (i *Inst) Reads() RegSet { return i.spec.Reads }

// Writes returns the registers the instruction writes.
func (i *Inst) Writes() RegSet { return i.spec.Writes }

// ReadsMem reports whether the instruction loads from memory.
func (i *Inst) ReadsMem() bool { return i.spec.ReadsMem }

// WritesMem reports whether the instruction stores to memory.
func (i *Inst) WritesMem() bool { return i.spec.WritesMem }

// MemWidth returns the access width in bytes (paper Fig 6 {{WIDTH}}),
// or 0 for non-memory instructions.
func (i *Inst) MemWidth() int { return i.spec.MemWidth }

// DelaySlots returns the number of delay slots the instruction
// executes before transferring control (0 or 1 on SPARC/MIPS).
func (i *Inst) DelaySlots() int { return i.spec.DelaySlots }

// AnnulBit reports whether the instruction's annul bit is set: a
// conditional branch with the bit set executes its delay slot only
// when taken; an unconditional one never executes it (paper §3.3).
func (i *Inst) AnnulBit() bool { return i.spec.AnnulBit }

// Conditional reports whether the control transfer is conditional.
func (i *Inst) Conditional() bool { return i.spec.Conditional }

// StaticTarget returns the transfer target for an instruction at pc,
// when it is statically computable (direct branches, calls, and
// jumps).  ok is false for indirect transfers and non-transfers.
func (i *Inst) StaticTarget(pc uint32) (target uint32, ok bool) {
	if i.spec.Target == nil {
		return 0, false
	}
	return i.spec.Target(pc)
}

// Field returns the named decoded instruction field.
func (i *Inst) Field(name string) (uint32, bool) { return i.spec.Fields.Get(name) }

// Addr returns the word's address operand; ok is false when the word
// has none, or when its address is not a register plus a register or
// a constant (Alpha's jmp masks its target).
func (i *Inst) Addr() (a Addr, ok bool) { return i.spec.Addr, i.spec.HasAddr }

// Def returns what the word's integer-register assignment computes;
// ok is false when the word has no such single assignment, or when
// its value has no Def form.
func (i *Inst) Def() (d Def, ok bool) { return i.spec.Def, i.spec.Def.Op != DefNone }

// Fields returns all decoded fields, in name order.
func (i *Inst) Fields() []Field {
	out := make([]Field, len(i.spec.Fields.Names))
	for j, n := range i.spec.Fields.Names {
		out[j] = Field{Name: n, Val: i.spec.Fields.Vals[j]}
	}
	return out
}

// Sem returns the decoder's opaque semantics handle (used by the
// emulator to execute the instruction).
func (i *Inst) Sem() any { return i.spec.Sem }

// Valid reports whether the word decoded to a real instruction.
func (i *Inst) Valid() bool { return i.spec.Cat != CatInvalid }

// IsAnnulledUncond reports whether this is an unconditional transfer
// that annuls (never executes) its delay slot, such as SPARC "ba,a".
func (i *Inst) IsAnnulledUncond() bool {
	return i.spec.AnnulBit && !i.spec.Conditional && i.spec.Cat.IsControl()
}

// EndsBlock reports whether the instruction ends a basic block: a
// control transfer, or an instruction that annuls its successor
// without transferring (SPARC's bn,a).  CFG construction, the
// editor's rules and layout, and the emulator's routine tier all
// split code here.
func (i *Inst) EndsBlock() bool { return i.spec.Cat.IsControl() || i.spec.AnnulBit }

// Span returns how many words the instruction governs: itself and its
// delay slots, or itself and the successor it annuls.  Control that
// does not transfer continues Span words on.
func (i *Inst) Span() int {
	if !i.spec.Cat.IsControl() && i.spec.AnnulBit {
		return 2
	}
	return 1 + i.spec.DelaySlots
}

// String renders a compact description for debugging.
func (i *Inst) String() string {
	if !i.Valid() {
		return fmt.Sprintf("invalid(%#08x)", i.spec.Word)
	}
	return fmt.Sprintf("%s(%#08x)", i.spec.Name, i.spec.Word)
}

// Decoder turns machine words into shared Inst values and names the
// machine's registers.  It is the whole machine-specific surface the
// architecture-independent layers see.
type Decoder interface {
	// Decode returns the (interned) instruction for word.
	Decode(word uint32) *Inst
	// RegName renders a register in the machine's assembly syntax.
	RegName(r Reg) string
	// WordSize returns the instruction width in bytes.
	WordSize() int
	// Name identifies the machine ("sparc", "mips32e", ...).
	Name() string
}

// DecodeText decodes a big-endian code image once: element i is the
// instruction at byte offset 4i.  A trailing partial word is dropped.
func DecodeText(dec Decoder, text []byte) []*Inst {
	out := make([]*Inst, len(text)/4)
	for i := range out {
		w := text[4*i : 4*i+4]
		out[i] = dec.Decode(uint32(w[0])<<24 | uint32(w[1])<<16 | uint32(w[2])<<8 | uint32(w[3]))
	}
	return out
}
