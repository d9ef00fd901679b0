package spawn_test

import (
	"math/rand"
	"testing"

	"eel/internal/alpha"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/rtl"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

func allDecoders() []*spawn.TableDecoder {
	return []*spawn.TableDecoder{sparc.NewDecoder(), mips.NewDecoder(), alpha.NewDecoder()}
}

// composite reports whether sem indexes a register file with anything
// but a bare field (SPARC ldd's R[rd | 1]): renaming the field's
// register then renames more than one register.
func composite(d *spawn.Desc, sem rtl.Node) bool {
	found := false
	rtl.Walk(sem, func(n rtl.Node) {
		ix, ok := n.(rtl.Index)
		if base, _ := ix.Base.(rtl.Ident); ok && base.Name != "M" {
			_, bare := rtl.UnwrapSeq(ix.Elem).(rtl.Ident)
			found = found || !bare
		}
	})
	return found
}

// TestSubstRegsProperty checks SubstRegs on every definition of every
// description, with seeded field values and a map r→s for r a register
// one of the word's read register operands holds: exactly the register
// operands holding r change, to s; fixed bits and every other field
// stay; and the decoded reads and writes are the original's with r
// replaced by s, for r the semantics do not also name without a field
// (SPARC ta's convention registers, save's whole window).  A map from
// the zero register changes nothing.
func TestSubstRegsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dec := range allDecoders() {
		d := dec.Desc()
		for _, def := range d.Insts {
			for trial := 0; trial < 40; trial++ {
				w := def.Match | rng.Uint32()&^def.Mask
				if d.DecodeRaw(w) != def {
					continue
				}
				var regs []*spawn.Operand
				for i := range def.Info.Operands {
					o := &def.Info.Operands[i]
					if o.Class == spawn.Register && o.Read && o.Guard.Holds(w) {
						regs = append(regs, o)
					}
				}
				if len(regs) == 0 {
					continue
				}
				o := regs[rng.Intn(len(regs))]
				r := machine.Reg(o.Value(w))
				zero, _ := d.MachineReg(d.ZeroFile, d.ZeroIndex)
				if d.HasZero && r == zero {
					if got := dec.SubstRegs(w, map[machine.Reg]machine.Reg{r: r + 1}); got != w {
						t.Errorf("%s %s %08x: zero register rewritten to %08x", d.MachineName, def.Name, w, got)
					}
					continue
				}
				s := r
				for s == r || d.HasZero && s == zero {
					s = machine.Reg(o.Value(o.Field.Insert(0, rng.Uint32())))
				}
				want := w
				for _, p := range regs {
					if machine.Reg(p.Value(w)) == r {
						want = p.Field.Insert(want, uint32(int64(s)-p.Value(0)))
					}
				}
				got := dec.SubstRegs(w, map[machine.Reg]machine.Reg{r: s})
				if got != want {
					t.Errorf("%s %s %08x {%d→%d}: got %08x, want %08x", d.MachineName, def.Name, w, r, s, got, want)
					continue
				}
				// implicit holds the registers the word names without a
				// field: its registers with every register operand at
				// the zero register (or index 0 in a file without one).
				v := w
				for _, p := range regs {
					v = p.Field.Insert(v, 0)
					if p.File == d.ZeroFile {
						v = p.Field.Insert(v, uint32(d.ZeroIndex))
					}
				}
				implicit := dec.Decode(v).Reads().Union(dec.Decode(v).Writes())
				if composite(d, def.Sem) || implicit.Has(r) {
					continue
				}
				before, after := dec.Decode(w), dec.Decode(got)
				for _, sets := range [][2]machine.RegSet{{before.Reads(), after.Reads()}, {before.Writes(), after.Writes()}} {
					exp := sets[0]
					if exp.Has(r) {
						exp = exp.Remove(r).Add(s)
					}
					if !sets[1].Equal(exp) {
						t.Errorf("%s %s %08x {%d→%d}: registers %s, want %s", d.MachineName, def.Name, w, r, s, sets[1], exp)
					}
				}
			}
		}
	}
}

// TestEncodingAllocs holds Encode, Retarget and SubstRegs to zero
// allocations per call: they run on every snippet word and every
// transfer an edit lays out.
func TestEncodingAllocs(t *testing.T) {
	dec := sparc.NewDecoder()
	d := dec.Desc()
	assign := map[machine.Reg]machine.Reg{16: 17}
	br, err := sparc.EncodeBranch("bne", true, 5)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := sparc.EncodeOp3Imm("ld", 16, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	var sink uint32
	for name, f := range map[string]func(){
		"Encode": func() {
			w, _ := d.Encode("ld", spawn.Set("rd", 16), spawn.Set("rs1", 16), spawn.Set("iflag", 1), spawn.Set("simm13", 8))
			sink += w
		},
		"Retarget": func() {
			w, _ := d.Retarget(br, 0x10000, 0x10040)
			sink += w
		},
		"SubstRegs": func() { sink += dec.SubstRegs(ld, assign) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocated %v times per call", name, n)
		}
	}
	if sink == 0 {
		t.Error("no words produced")
	}
}
