package progen

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"eel/internal/binfile"
)

// Program is a generated program with its source and image.
type Program struct {
	Source string
	File   *binfile.File
	// DataRanges lists [start,end) address ranges inside the text
	// segment holding data — dispatch tables and data blobs — rather
	// than instructions.  Every other text word came from an encoder.
	DataRanges [][2]uint32
	// ExpectedFeatures counts what was generated, for tests.
	Switches      int
	Continuations int
	Hidden        int
}

// IsData reports whether the text word at addr is embedded data
// rather than an encoder-produced instruction.
func (p *Program) IsData(addr uint32) bool {
	for _, r := range p.DataRanges {
		if addr >= r[0] && addr < r[1] {
			return true
		}
	}
	return false
}

// TextWords returns the text segment as big-endian words.
func (p *Program) TextWords() []uint32 {
	data := p.File.Text().Data
	out := make([]uint32, len(data)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(data[i*4:])
	}
	return out
}

// Routine holds one routine's traits, decided before any code is
// emitted so that main's slot initialization, the call DAG and the
// symbol table agree.
type Routine struct {
	// Win marks a register-window routine (save/restore).
	Win bool
	// MayCall marks a non-leaf routine, which calls later routines.
	MayCall bool
	// Entry2 marks a routine with a second, directly-called entry
	// point (Fortran ENTRY).
	Entry2 bool
	// Hidden omits the routine's symbol.
	Hidden bool
	// TailTarget, when nonzero, is the later routine this one leaves
	// for through the SunPro pop-frame-and-jump continuation (routine
	// 0 is never a target: targets come strictly later).
	TailTarget int
}

// DataBase is the data section's address; the generators lay out
// their slots from it.
const DataBase = 0x400000

// image is the state both emitters share with the image builder: the
// routines' traits, the local labels, the symbols beyond main's and
// the routines' (data blobs' labels, debug labels, selfmod), the data
// embedded in the text, and the switch count.
type image struct {
	// Routines holds the traits of routines r0, r1, ....
	Routines []Routine
	prefix   string // local-label prefix
	label    int
	extra    []binfile.Symbol // symbols for labels of the same name
	data     []dataLabel
	switches int // dispatch switches, or MIPS indirect calls
}

// dataLabel is a run of data words embedded in text at a label.
type dataLabel struct {
	name  string
	words int
}

// Fresh returns a new local label.
func (im *image) Fresh(name string) string {
	im.label++
	return im.prefix + name + strconv.Itoa(im.label)
}

// blob names a blob of n data words, recording it as data and giving
// it a symbol indistinguishable from a routine's (§3.1).
func (im *image) blob(n int) string {
	name := "dtab" + strconv.Itoa(im.label)
	im.label++
	im.data = append(im.data, dataLabel{name, n})
	im.symbol(name, binfile.SymLabel, false)
	return name
}

// symbol adds a symbol for label name to the image.
func (im *image) symbol(name string, kind binfile.SymKind, global bool) {
	im.extra = append(im.extra, binfile.Symbol{Name: name, Kind: kind, Global: global})
}

// build turns emitted text and its labels into the program: the text
// section at base and the data section, the (misleading, in the
// paper's sense) symbol table — function symbols for main and the
// visible routines, a duplicate of main for refinement to discard,
// and the extra symbols — and the data ranges.
func (im *image) build(src string, base uint32, text []byte, labels map[string]uint32, strip bool) *Program {
	f := &binfile.File{
		Format: "aout",
		Entry:  base,
		Sections: []binfile.Section{
			{Name: "text", Addr: base, Data: text},
			{Name: "data", Addr: DataBase, Data: make([]byte, 8192)},
		},
	}
	add := func(name, label string, kind binfile.SymKind, global bool) {
		if addr, ok := labels[label]; ok {
			f.Symbols = append(f.Symbols, binfile.Symbol{Name: name, Addr: addr, Kind: kind, Global: global})
		}
	}
	add("main", "main", binfile.SymFunc, true)
	add("main_dup", "main", binfile.SymLabel, false)
	for i, r := range im.Routines {
		if !r.Hidden {
			name := fmt.Sprintf("r%d", i)
			add(name, name, binfile.SymFunc, true)
		}
	}
	for _, s := range im.extra {
		add(s.Name, s.Name, s.Kind, s.Global)
	}
	f.SortSymbols()
	if strip {
		f.Strip()
	}
	p := &Program{Source: src, File: f, Switches: im.switches}
	for _, r := range im.Routines {
		if r.Hidden {
			p.Hidden++
		}
		if r.TailTarget != 0 {
			p.Continuations++
		}
	}
	for _, d := range im.data {
		addr := labels[d.name]
		p.DataRanges = append(p.DataRanges, [2]uint32{addr, addr + uint32(d.words)*4})
	}
	return p
}
