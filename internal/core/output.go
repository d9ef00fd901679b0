package core

import (
	"encoding/binary"
	"fmt"

	"eel/internal/binfile"
	"eel/internal/machine"
	"eel/internal/sparc"
)

// BuildEdited assembles the edited executable (§3.1/§3.3.1):
//
//   - every routine's measured plan is emitted at its new address
//     (routines without explicit edits are re-laid-out unchanged, so
//     all cross-routine references stay consistent);
//   - dispatch tables are rewritten to point at edited locations
//     (per-edge instrumentation goes through stubs);
//   - a translation table mapping every original text address to its
//     edited address is emitted when any unresolved indirect
//     transfer needs run-time translation;
//   - the original text segment is retained, non-executable, at its
//     original address, so data tables embedded in text keep
//     working;
//   - the symbol table is regenerated at edited addresses so
//     standard tools still work on the edited program.
func (e *Executable) BuildEdited() (*binfile.File, error) {
	if e.edited != nil {
		return e.edited, nil
	}
	// Ensure every routine has a plan (unedited ones get an
	// identity re-layout).  Building a plan can discover hidden
	// routines (unreachable tails, §3.1 stage 4); the walk plans
	// those too.
	err := e.EachRoutine(func(r *Routine) error {
		if r.plan != nil {
			return nil
		}
		return r.ProduceEditedRoutine()
	})
	if err != nil {
		return nil, err
	}
	text := e.File.Text()

	// Place the new text beyond every existing section and the
	// tool-allocated data region.
	newTextBase := e.newDataBase + uint32(len(e.newData))
	newTextBase = (newTextBase + 0xFFFF) &^ 0xFFFF

	// Assign routine bases and build the global address map: the
	// edited address of each text word, 0 for none.
	e.addrMap = make([]uint32, len(text.Data)/4)
	cursor := newTextBase
	needTT := false
	for _, r := range e.routines {
		p := r.plan
		p.base = cursor
		first := (p.start - text.Addr) / 4
		for i, off := range p.localMap {
			if off >= 0 {
				e.addrMap[first+uint32(i)] = cursor + uint32(off)
			}
		}
		cursor += uint32(p.sizeWords * 4)
		cursor = (cursor + 7) &^ 7
		needTT = needTT || p.needTT
	}
	newTextEnd := cursor

	ttBase := (newTextEnd + 0xFFF) &^ 0xFFF
	var tt [2]uint32 // sethi %hi(delta), rd ; or rd, %lo(delta), rd
	if needTT {
		delta, rd := ttBase-text.Addr, machine.ABIOf(e.Dec).Reserved[0]
		var err error
		if tt[0], err = sparc.EncodeSethi(rd, delta); err != nil {
			return nil, err
		}
		if tt[1], err = sparc.EncodeOp3Imm("or", rd, rd, int32(sparc.Lo(delta))); err != nil {
			return nil, err
		}
	}

	// Emit every routine.
	newText := make([]byte, newTextEnd-newTextBase)
	for _, r := range e.routines {
		if err := r.plan.emit(e, newText[r.plan.base-newTextBase:], tt); err != nil {
			return nil, fmt.Errorf("core: emitting %s: %w", r.Name, err)
		}
	}

	// Copy original sections; rewrite dispatch tables in the copies.
	oldText := append([]byte(nil), text.Data...)
	var dataCopy []byte
	var dataSec *binfile.Section
	if d := e.File.Data(); d != nil {
		dataSec = d
		dataCopy = append([]byte(nil), d.Data...)
	}
	writeWord := func(addr, val uint32) error {
		if text.Contains(addr) {
			binary.BigEndian.PutUint32(oldText[addr-text.Addr:], val)
			return nil
		}
		if dataSec != nil && dataSec.Contains(addr) {
			binary.BigEndian.PutUint32(dataCopy[addr-dataSec.Addr:], val)
			return nil
		}
		return fmt.Errorf("core: dispatch table at %#x outside known sections", addr)
	}
	for _, r := range e.routines {
		for _, ij := range r.plan.tables {
			if ij.Literal || ij.TableLen == 0 {
				continue
			}
			for i := 0; i < ij.TableLen; i++ {
				entryAddr := ij.TableAddr + uint32(i*4)
				orig, ok := e.ReadWord(entryAddr)
				if !ok {
					return nil, fmt.Errorf("core: cannot read dispatch table entry at %#x", entryAddr)
				}
				// An entry whose edge carries edits goes to its stub.
				repl, ok := r.plan.redirect(ij.TableAddr, orig)
				if !ok {
					if repl, ok = e.EditedAddr(orig); !ok {
						return nil, fmt.Errorf("core: dispatch entry %#x has no edited address", orig)
					}
				}
				if err := writeWord(entryAddr, repl); err != nil {
					return nil, err
				}
			}
		}
	}

	out := &binfile.File{Format: e.File.Format}
	entry, ok := e.EditedAddr(e.File.Entry)
	if !ok {
		return nil, fmt.Errorf("core: entry point %#x has no edited address", e.File.Entry)
	}
	out.Entry = entry
	out.Sections = append(out.Sections, binfile.Section{Name: "text", Addr: newTextBase, Data: newText})
	// The original text stays resident as data (embedded tables,
	// strings); naming it "oldtext" keeps it non-executable.
	out.Sections = append(out.Sections, binfile.Section{Name: "oldtext", Addr: text.Addr, Data: oldText})
	if dataSec != nil {
		out.Sections = append(out.Sections, binfile.Section{Name: "data", Addr: dataSec.Addr, Data: dataCopy})
	}
	if len(e.newData) > 0 {
		out.Sections = append(out.Sections, binfile.Section{Name: "eeldata", Addr: e.newDataBase, Data: append([]byte(nil), e.newData...)})
	}
	if needTT {
		tt := make([]byte, len(text.Data))
		for i, v := range e.addrMap {
			binary.BigEndian.PutUint32(tt[4*i:], v)
		}
		out.Sections = append(out.Sections, binfile.Section{Name: "ttable", Addr: ttBase, Data: tt})
	}

	// Regenerate the symbol table at edited addresses (§3.1: "EEL
	// maintains symbol table information for the edited program").
	for _, r := range e.routines {
		if addr, ok := e.EditedAddr(r.Start); ok {
			out.Symbols = append(out.Symbols, binfile.Symbol{
				Name: r.Name, Addr: addr,
				Size: uint32(r.plan.sizeWords * 4),
				Kind: binfile.SymFunc, Global: !r.Hidden,
			})
		}
	}
	for _, s := range e.File.Symbols {
		if s.Kind == binfile.SymData {
			out.Symbols = append(out.Symbols, s)
		}
	}
	out.SortSymbols()

	e.edited = out
	e.didLayout = true
	return out, nil
}

// WriteEditedExecutable builds the edited program and writes it to
// path (the paper's write_edited_executable).
func (e *Executable) WriteEditedExecutable(path string) error {
	f, err := e.BuildEdited()
	if err != nil {
		return err
	}
	return binfile.WriteFile(path, f)
}

// redirect returns the stub address a dispatch-table entry holding
// orig in the table at tableAddr is rewritten to, when its edge
// carries edits; the last redirect recorded wins.
func (p *routinePlan) redirect(tableAddr, orig uint32) (uint32, bool) {
	for i := len(p.redirects) - 1; i >= 0; i-- {
		if rd := p.redirects[i]; rd.tableAddr == tableAddr && rd.origTarget == orig {
			return p.base + uint32(p.stubOffset[rd.stub])*4, true
		}
	}
	return 0, false
}
