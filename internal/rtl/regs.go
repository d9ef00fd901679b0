package rtl

import "fmt"

// The register array: every register a description declares has one
// slot in a Regs, fixed when the description compiles.  Compiled
// programs index it directly; only the interpreter (Exec) and spawn's
// static analyses still name registers by file.

// FloatSlot is where the float file starts in a Regs.  The integer
// file occupies the slots below it: its first 32 registers, then the
// extended slots 32..34 (SPARC's Y, PSR and FSR aliases, MIPS's HI
// and LO).
const FloatSlot = 35

// NumSlots is the size of the register array.
const NumSlots = FloatSlot + 32

// Regs is the register array compiled programs read and write.
type Regs [NumSlots]uint32

// RegLayout maps a description's register files onto Regs: the
// integer file at slots 0..IntCount-1 and the float file at
// FloatSlot..FloatSlot+FloatCount-1.
type RegLayout struct {
	Int, Float           string
	IntCount, FloatCount int
	Zero                 int64 // the hardwired-zero index, -1 when none
}

// Slot returns the slot of file[idx], or false when the layout does
// not hold that register.  It is the one name-to-slot mapping: the
// compiler resolves every register reference through it, and the
// interpreter's Machines map their by-name accesses through it.
func (l *RegLayout) Slot(file string, idx int64) (int, bool) {
	var lo, n int
	switch file {
	case l.Int:
		lo, n = 0, l.IntCount
	case l.Float:
		lo, n = FloatSlot, l.FloatCount
	default:
		return 0, false
	}
	if idx < 0 || idx >= int64(n) {
		return 0, false
	}
	return lo + int(idx), true
}

// IsZero reports whether slot s is the hardwired zero, whose reads
// yield 0 and whose writes are dropped.
func (l *RegLayout) IsZero(s int) bool { return int64(s) == l.Zero }

// UnknownReg is the error of a Machine asked for a register its layout
// does not hold.
func UnknownReg(op, file string, idx int64) error {
	return fmt.Errorf("%s of unknown register %s[%d]", op, file, idx)
}

// slotSet is a set of register slots.
type slotSet [(NumSlots + 63) / 64]uint64

func (s *slotSet) add(i int)      { s[i>>6] |= 1 << (i & 63) }
func (s *slotSet) has(i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
