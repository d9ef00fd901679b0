package core

import (
	"fmt"
	"sort"
	"sync"

	"eel/internal/binfile"
	"eel/internal/machine"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Executable is EEL's top abstraction (§3.1): code and data from an
// executable file.  Opening one runs the symbol-table refinement of
// §3.1 — discard misleading labels, discover hidden routines and
// multiple entry points, recover routines in stripped executables
// from direct calls — and exposes the refined routine list for
// analysis and editing.
type Executable struct {
	// File is the underlying container image.
	File *binfile.File
	// Dec decodes this executable's machine instructions.
	Dec *spawn.TableDecoder

	// insts is the text segment decoded once by ReadContents, one
	// instruction per word.  It is immutable afterwards, so concurrent
	// routine analyses share it without locking.
	insts []*machine.Inst

	routines []*Routine // sorted by Start
	walk     uint32     // stamp of the latest Waves walk (Routine.walk)

	// mu guards the routine list against concurrent hidden-routine
	// discovery: distinct routines may be analyzed in parallel (see
	// internal/pipeline), and each analysis can split an unreachable
	// tail off its own routine, which inserts into the shared list.
	mu sync.Mutex

	// Options controlling editing (ablation hooks).
	// FoldDelaySlots re-folds unedited hoisted slot instructions
	// back into delay slots on output (on by default, §3.3).
	FoldDelaySlots bool
	// Scavenge uses liveness-driven register scavenging for
	// snippets; off forces spilling (ablation).
	Scavenge bool
	// ForceRuntimeTranslation treats every indirect jump as
	// unanalyzable (ablation for the slicing experiment).
	ForceRuntimeTranslation bool
	// LightAnalysis models the ad-hoc pre-EEL tool (experiment E1's
	// "qpt" baseline): no liveness (snippets always spill), no
	// slicing (indirect jumps always translate at run time), no
	// delay-slot folding.
	LightAnalysis bool

	// Stats accumulates snippet-allocation outcomes.
	Stats ScavengeStats

	// newData holds tool-allocated data (profile counters etc.).
	newData     []byte
	newDataBase uint32

	// edited output state
	edited    *binfile.File
	addrMap   []uint32 // edited address by original text word, 0 for none
	didLayout bool
}

// NewExecutable wraps a parsed image.  Call ReadContents before using
// routines (mirroring the paper's exec->read_contents()).
func NewExecutable(f *binfile.File) (*Executable, error) {
	if f.Text() == nil {
		return nil, fmt.Errorf("core: executable has no text section")
	}
	e := &Executable{
		File:           f,
		Dec:            sparc.NewDecoder(),
		FoldDelaySlots: true,
		Scavenge:       true,
	}
	e.newDataBase = e.freeAddressAfterSections(0x00800000)
	return e, nil
}

// OpenExecutable reads and wraps the executable at path.
func OpenExecutable(path string) (*Executable, error) {
	f, err := binfile.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewExecutable(f)
}

// freeAddressAfterSections picks an address beyond every section,
// aligned up generously.
func (e *Executable) freeAddressAfterSections(min uint32) uint32 {
	max := min
	for _, s := range e.File.Sections {
		if end := s.End(); end > max {
			max = end
		}
	}
	return (max + 0xFFFF) &^ 0xFFFF
}

// StartAddress returns the program's entry point.
func (e *Executable) StartAddress() uint32 { return e.File.Entry }

// Routines returns the refined routine list, sorted by address.
func (e *Executable) Routines() []*Routine { return e.routines }

// Waves is the paper's Figure 1 walk, hidden_routines worklist
// included: it calls fn with every routine it has not yet passed to
// fn, in address order, and repeats until no new routine appears.
// Analysis inside fn may split hidden routines off (§3.1 stage 4);
// they arrive in the next wave.  fn may analyze one wave's routines
// concurrently, but must not start another walk of e, and the slice
// is only valid during the call.
func (e *Executable) Waves(fn func([]*Routine) error) error {
	e.walk++
	pending := make([]*Routine, 0, len(e.routines))
	for {
		pending = pending[:0]
		for _, r := range e.routines {
			if r.walk != e.walk {
				r.walk = e.walk
				pending = append(pending, r)
			}
		}
		if len(pending) == 0 {
			return nil
		}
		if err := fn(pending); err != nil {
			return err
		}
	}
}

// EachRoutine calls fn once for every routine, hidden routines
// discovered along the way included: the sequential form of Waves.
func (e *Executable) EachRoutine(fn func(*Routine) error) error {
	return e.Waves(func(rs []*Routine) error {
		for _, r := range rs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
}

// RoutineByName finds a routine.
func (e *Executable) RoutineByName(name string) *Routine {
	for _, r := range e.routines {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// RoutineAt returns the routine containing addr, or nil.
func (e *Executable) RoutineAt(addr uint32) *Routine {
	i := sort.Search(len(e.routines), func(i int) bool { return e.routines[i].End > addr })
	if i < len(e.routines) && e.routines[i].Start <= addr {
		return e.routines[i]
	}
	return nil
}

// ReadWord reads a big-endian word from any mapped section.
func (e *Executable) ReadWord(addr uint32) (uint32, bool) {
	for i := range e.File.Sections {
		s := &e.File.Sections[i]
		if s.Contains(addr) && addr+4 <= s.End() {
			off := addr - s.Addr
			d := s.Data
			return uint32(d[off])<<24 | uint32(d[off+1])<<16 |
				uint32(d[off+2])<<8 | uint32(d[off+3]), true
		}
	}
	return 0, false
}

// InstAt returns the instruction at text address addr, from the text
// ReadContents decoded; ok is false outside the text or off a word.
func (e *Executable) InstAt(addr uint32) (*machine.Inst, bool) {
	off := addr - e.File.Text().Addr
	if off%4 != 0 || int(off/4) >= len(e.insts) {
		return nil, false
	}
	return e.insts[off/4], true
}

// AllocData reserves size bytes of fresh, zero-initialized data for
// the tool (profile counters, simulation state) and returns its
// address.  The region becomes an extra data section of the edited
// executable.
func (e *Executable) AllocData(size int) uint32 {
	size = (size + 3) &^ 3
	addr := e.newDataBase + uint32(len(e.newData))
	e.newData = append(e.newData, make([]byte, size)...)
	return addr
}

// ReadContents analyzes the program and refines its symbol table
// (paper §3.1 stages 1-3); stage 4 refinements happen as CFGs are
// built.
func (e *Executable) ReadContents() error {
	text := e.File.Text()
	if text.Addr%4 != 0 {
		return fmt.Errorf("core: text section at %#x is not word aligned", text.Addr)
	}
	e.insts = machine.DecodeText(e.Dec, text.Data)
	xfers := e.directTransfers()
	var starts []routineSeed
	if hasRoutineSymbols(e.File) {
		starts = e.refineSymbols(xfers)
	} else {
		starts = e.recoverStripped(xfers)
	}
	if len(starts) == 0 {
		starts = []routineSeed{{addr: text.Addr, name: fmt.Sprintf("text_%08x", text.Addr)}}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].addr < starts[j].addr })
	// Deduplicate and build extents.
	var last uint32 = 0xffffffff
	for _, s := range starts {
		if s.addr == last {
			continue
		}
		last = s.addr
		e.routines = append(e.routines, &Routine{Exec: e, Name: s.name, Start: s.addr, Entries: []uint32{s.addr}})
	}
	for i, r := range e.routines {
		if i+1 < len(e.routines) {
			r.End = e.routines[i+1].Start
		} else {
			r.End = text.End()
		}
	}
	e.findInterproceduralEntries(xfers)
	return nil
}

type routineSeed struct {
	addr uint32
	name string
}

func hasRoutineSymbols(f *binfile.File) bool {
	text := f.Text()
	for _, s := range f.Symbols {
		if text.Contains(s.Addr) && s.Kind != binfile.SymDebug {
			return true
		}
	}
	return false
}

// refineSymbols implements stage 1: drop debugging and temporary
// labels, misaligned labels, and labels that are branch targets from
// the preceding routine (probable internal labels).
func (e *Executable) refineSymbols(xfers []transfer) []routineSeed {
	text := e.File.Text()
	type cand struct {
		sym  binfile.Symbol
		keep bool
	}
	var cands []cand
	e.File.SortSymbols()
	for _, s := range e.File.Symbols {
		if !text.Contains(s.Addr) || s.Kind == binfile.SymDebug || s.Kind == binfile.SymData {
			continue
		}
		if s.Addr%4 != 0 {
			continue // not on an instruction boundary
		}
		if len(cands) > 0 && cands[len(cands)-1].sym.Addr == s.Addr {
			continue // duplicate label (the symbols are sorted by address)
		}
		cands = append(cands, cand{sym: s, keep: true})
	}
	// Discard Label-kind candidates that are branch/jump (not call,
	// §3.1: "not call!") targets from the candidate region that
	// precedes them.
	for _, x := range xfers {
		if x.cat != machine.CatBranch && x.cat != machine.CatJumpDirect {
			continue
		}
		i := sort.Search(len(cands), func(i int) bool { return cands[i].sym.Addr >= x.to })
		if i == len(cands) || cands[i].sym.Addr != x.to {
			continue
		}
		if cands[i].sym.Kind == binfile.SymFunc {
			continue // typed function symbols are trusted
		}
		prevStart := text.Addr
		if i > 0 {
			prevStart = cands[i-1].sym.Addr
		}
		if x.from >= prevStart && x.from < x.to {
			cands[i].keep = false
		}
	}
	var out []routineSeed
	for _, c := range cands {
		if c.keep {
			out = append(out, routineSeed{addr: c.sym.Addr, name: c.sym.Name})
		}
	}
	return out
}

// transfer is a direct control transfer to a text word.
type transfer struct {
	from, to uint32
	cat      machine.Category
}

// directTransfers lists, in address order, every instruction of the
// text with a static target that is a text word; stages 1-3 all read
// this one list.
func (e *Executable) directTransfers() []transfer {
	text := e.File.Text()
	var out []transfer
	for i, inst := range e.insts {
		a := text.Addr + 4*uint32(i)
		if t, ok := inst.StaticTarget(a); ok && text.Contains(t) && t%4 == 0 {
			out = append(out, transfer{a, t, inst.Category()})
		}
	}
	return out
}

// recoverStripped implements stage 2: with no symbols, the entry
// point and first text address seed the routine set, refined by the
// targets of direct calls.
func (e *Executable) recoverStripped(xfers []transfer) []routineSeed {
	text := e.File.Text()
	seeds := map[uint32]bool{e.File.Entry: true, text.Addr: true}
	for _, x := range xfers {
		if x.cat == machine.CatCallDirect {
			seeds[x.to] = true
		}
	}
	var out []routineSeed
	for addr := range seeds {
		if text.Contains(addr) {
			out = append(out, routineSeed{addr: addr, name: fmt.Sprintf("fn_%08x", addr)})
		}
	}
	return out
}

// findInterproceduralEntries implements stage 3: jumps out of a
// routine and calls to non-routine addresses become entry points of
// the routines containing them.  The scan is conservative (§3.1: it
// "may find invalid entries, as for example, when data is
// interpreted as an instruction, but it does not miss entry
// points").
func (e *Executable) findInterproceduralEntries(xfers []transfer) {
	for _, x := range xfers {
		if x.cat != machine.CatBranch && x.cat != machine.CatJumpDirect && x.cat != machine.CatCallDirect {
			continue
		}
		if src, dst := e.RoutineAt(x.from), e.RoutineAt(x.to); src != nil && dst != nil && src != dst {
			dst.addEntry(x.to)
		}
	}
}

// addHiddenTail splits off the unreachable tail of r (stage 4) as a
// new hidden routine.  Only r's own analysis may call this for r, so
// r's extent needs no lock; the shared routine list does.
func (e *Executable) addHiddenTail(r *Routine, tail uint32) *Routine {
	if tail <= r.Start || tail >= r.End {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	h := &Routine{
		Exec:    e,
		Name:    fmt.Sprintf("hidden_%08x", tail),
		Start:   tail,
		End:     r.End,
		Entries: []uint32{tail},
		Hidden:  true,
	}
	// The split point can precede refined entry points of r (the
	// unreached region is a hole when a directly-called hidden
	// routine follows it); those entries belong to the split-off
	// routine now, and keeping them on r would put them outside its
	// shrunken extent.
	var keep []uint32
	for _, en := range r.Entries {
		switch {
		case en < tail:
			keep = append(keep, en)
		case en > tail:
			h.Entries = append(h.Entries, en)
		}
	}
	r.Entries = keep
	r.End = tail
	// Insert in sorted position.
	i := sort.Search(len(e.routines), func(i int) bool { return e.routines[i].Start > h.Start })
	e.routines = append(e.routines, nil)
	copy(e.routines[i+1:], e.routines[i:])
	e.routines[i] = h
	return h
}

// RegisterHiddenTail replays a hidden-routine split recorded by a
// cached analysis (internal/pipeline): the tail of r becomes a new
// hidden routine exactly as if this run's analysis had discovered it.
// It is a no-op when r has already been split at or before tail.
func (e *Executable) RegisterHiddenTail(r *Routine, tail uint32) *Routine {
	return e.addHiddenTail(r, tail)
}

// EditedAddr maps an original address to its location in the edited
// executable (valid after BuildEdited/WriteEditedExecutable).
func (e *Executable) EditedAddr(orig uint32) (uint32, bool) {
	i := (orig - e.File.Text().Addr) / 4
	if orig%4 != 0 || i >= uint32(len(e.addrMap)) {
		return 0, false
	}
	return e.addrMap[i], e.addrMap[i] != 0
}
