package machine

import (
	"fmt"
	"sort"
	"sync"
)

// TrapModel describes a machine's software-trap system-call ABI: which
// trap() code selects the syscall handler, which integer register
// carries the call number, where the arguments and result live, and
// the call numbers the emulator implements.  The execution substrate
// consumes this instead of hard-coding one machine's convention.
type TrapModel struct {
	// Code is the trap() argument that means "system call" (SPARC
	// "ta 0" passes 0; Alpha call_pal passes its function code).
	Code uint64
	// NumReg is the integer register index holding the call number
	// (SPARC %g1, MIPS $v0, Alpha $v0).
	NumReg int
	// Args are the registers carrying the first three arguments
	// (SPARC %o0..%o2, MIPS $a0..$a2, Alpha $a0..$a2).
	Args [3]int
	// Ret is the register receiving the result.
	Ret int
	// SysExit and SysWrite are the implemented call numbers.
	SysExit  uint32
	SysWrite uint32
}

// ABI is a machine's calling convention as the machine-independent
// analyses consume it: liveness and the slicer read the call and exit
// sets, the scavenger and free-register queries borrow only from
// Scavengeable, the spiller addresses the stack through SP, the
// layout's run-time translation stubs use Reserved, and CFG
// construction takes Nop words after a routine for padding.
type ABI struct {
	// Zero is the hardwired zero register; SP, FP and RA are the
	// stack pointer, the frame pointer and the register calls link
	// the return address into.
	Zero, SP, FP, RA Reg
	// Reserved is the editor's scratch pair: run-time translation
	// stubs load the translation table's delta into Reserved[0] and
	// the translated target into Reserved[1], so neither is ever
	// offered to a snippet.
	Reserved [2]Reg
	// CallUse is what a call is assumed to read (arguments, the
	// stack and frame pointers, the return address); CallDef is what
	// it may clobber (caller-saved registers and condition codes).
	CallUse, CallDef RegSet
	// ExitLive is assumed live when a routine exits: return values,
	// the stack and frame pointers, the return address and the
	// registers that belong to the caller.
	ExitLive RegSet
	// Nop is the machine's canonical no-op word, the padding
	// compilers and linkers put between routines.
	Nop uint32
}

// Scavengeable returns the integer registers an editor may borrow:
// the integer file minus Zero, SP, FP, RA and the Reserved pair.
func (a *ABI) Scavengeable() RegSet {
	return IntRegs().Remove(a.Zero).Remove(a.SP).Remove(a.FP).Remove(a.RA).
		Remove(a.Reserved[0]).Remove(a.Reserved[1])
}

// ABIOf returns the calling convention registered for dec's machine,
// or nil when no architecture of that name is registered.
func ABIOf(dec Decoder) *ABI {
	if a, ok := ArchByName(dec.Name()); ok {
		return &a.ABI
	}
	return nil
}

// ArchInfo is the per-architecture configuration the machine-
// independent layers consume: how to build a decoder, and the trap
// and calling conventions.
// Architecture packages register themselves from init(), so importing
// an architecture is all it takes to make it available by name.
type ArchInfo struct {
	// Name is the machine name as reported by Decoder.Name()
	// ("sparc", "mips32e", "alpha64e").
	Name string
	// Aliases are additional accepted lookup names (e.g. the short
	// "-isa" spellings "mips", "alpha").
	Aliases []string
	// NewDecoder builds a fresh decoder for the architecture.
	NewDecoder func() Decoder
	// Trap is the system-call ABI.
	Trap TrapModel
	// ABI is the calling convention.
	ABI ABI
}

var (
	archMu  sync.RWMutex
	arches  = map[string]*ArchInfo{}
	archVis []string // registration order of canonical names
)

// RegisterArch makes info available through ArchByName.  It panics on
// a duplicate canonical name; architecture packages call it from
// init(), so a collision is a build bug.
func RegisterArch(info ArchInfo) {
	archMu.Lock()
	defer archMu.Unlock()
	if info.Name == "" || info.NewDecoder == nil {
		panic("machine: RegisterArch needs a name and a decoder constructor")
	}
	if _, dup := arches[info.Name]; dup {
		panic(fmt.Sprintf("machine: architecture %q registered twice", info.Name))
	}
	p := &info
	arches[info.Name] = p
	archVis = append(archVis, info.Name)
	for _, a := range info.Aliases {
		if _, dup := arches[a]; dup {
			panic(fmt.Sprintf("machine: architecture alias %q registered twice", a))
		}
		arches[a] = p
	}
}

// ArchByName looks up a registered architecture by canonical name or
// alias.
func ArchByName(name string) (*ArchInfo, bool) {
	archMu.RLock()
	defer archMu.RUnlock()
	a, ok := arches[name]
	return a, ok
}

// ArchNames returns the canonical names of all registered
// architectures, sorted.
func ArchNames() []string {
	archMu.RLock()
	defer archMu.RUnlock()
	out := append([]string(nil), archVis...)
	sort.Strings(out)
	return out
}
