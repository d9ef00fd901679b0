package spawn_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"eel/internal/alpha"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// corpusWords returns the distinct words of the text segments of a
// few generated programs for isa, in both personalities.
func corpusWords(t *testing.T, isa string) []uint32 {
	t.Helper()
	seen := map[uint32]bool{}
	var out []uint32
	for seed := int64(1); seed <= 3; seed++ {
		cfg := progen.DefaultConfig(seed)
		cfg.ISA = isa
		cfg.Personality = progen.Personality(seed % 2)
		p, err := progen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		text := p.File.Text().Data
		for i := 0; i+4 <= len(text); i += 4 {
			if w := binary.BigEndian.Uint32(text[i:]); !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// definitionSweep returns, for every definition of d, its match bits
// with the operand bits set to a few patterns.
func definitionSweep(d *spawn.Desc) []uint32 {
	var out []uint32
	for _, def := range d.Insts {
		for _, bits := range []uint32{0, ^uint32(0), 0x55555555, 0xaaaaaaaa, 0x0000ffff, 0xffff0000, 0x00001fff, 0x02000000} {
			if w := def.Match | bits&^def.Mask; d.DecodeRaw(w) == def {
				out = append(out, w)
			}
		}
	}
	return out
}

// TestMemoServedMatchesFresh is the memo's differential test: every
// distinct word of the SPARC and MIPS corpora, and a sweep of every
// definition on all three ISAs, decoded by a second decoder (so its
// spec comes from the package memo the first decoder filled) must
// match a fresh derivation in every spec field, in its target at
// several pcs, and in its field values.
func TestMemoServedMatchesFresh(t *testing.T) {
	for _, isa := range []struct {
		name   string
		newDec func() *spawn.TableDecoder
		glue   spawn.Glue
		words  []uint32
	}{
		{"sparc", sparc.NewDecoder, sparc.Glue, append(corpusWords(t, "sparc"), definitionSweep(sparc.Desc())...)},
		{"mips", mips.NewDecoder, mips.Glue, append(corpusWords(t, "mips"), definitionSweep(mips.Desc())...)},
		{"alpha", alpha.NewDecoder, alpha.Glue, definitionSweep(alpha.Desc())},
	} {
		warm := isa.newDec()
		for _, w := range isa.words {
			warm.Decode(w)
		}
		dec := isa.newDec()
		d := dec.Desc()
		fresh := spawn.NewMemo(d, isa.glue)
		for _, w := range isa.words {
			got, want := dec.Decode(w), fresh.Spec(w)
			if got.Word() != w || got.Name() != want.Name || got.Category() != want.Cat ||
				got.Reads() != want.Reads || got.Writes() != want.Writes ||
				got.ReadsMem() != want.ReadsMem || got.WritesMem() != want.WritesMem ||
				got.MemWidth() != want.MemWidth || got.DelaySlots() != want.DelaySlots ||
				got.AnnulBit() != want.AnnulBit || got.Conditional() != want.Conditional {
				t.Errorf("%s %08x: memo-served %+v, fresh %+v", isa.name, w, got, want)
				continue
			}
			for _, pc := range targetPCs {
				gt, gok := got.StaticTarget(pc)
				var wt uint32
				var wok bool
				if want.Target != nil {
					wt, wok = want.Target(pc)
				}
				if gt != wt || gok != wok {
					t.Errorf("%s %s %08x at pc %#x: target (%#x, %v), fresh (%#x, %v)", isa.name, got.Name(), w, pc, gt, gok, wt, wok)
				}
			}
			if !got.Valid() {
				continue
			}
			vals := d.FieldVals(w)
			if !reflect.DeepEqual(want.Fields, vals) {
				t.Errorf("%s %08x: fresh fields %v, want %v", isa.name, w, want.Fields, vals)
			}
			fields := got.Fields()
			for i, name := range vals.Names {
				if v, ok := got.Field(name); !ok || v != vals.Vals[i] || fields[i] != (machine.Field{Name: name, Val: vals.Vals[i]}) {
					t.Errorf("%s %08x: field %s = %d (%v), listed %v, want %d", isa.name, w, name, v, ok, fields[i], vals.Vals[i])
				}
			}
			if len(fields) != len(vals.Names) {
				t.Errorf("%s %08x: %d fields, want %d", isa.name, w, len(fields), len(vals.Names))
			}
			if sem := got.Sem().(*spawn.InstSem); sem.Def != d.DecodeRaw(w) || !reflect.DeepEqual(sem.Fields, vals) {
				t.Errorf("%s %08x: semantics handle for %s", isa.name, w, sem.Def.Name)
			}
		}
	}
}
