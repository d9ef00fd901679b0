package spawn_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"eel/internal/alpha"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/rtl"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// formPC is the address every swept word executes at.
const formPC = 0x40000000

// formRecorder is an rtl.Machine over a random register and memory
// state that records what one word does: the first address it touches
// in memory, the value its first memory write stores, its register
// writes and its pc assignment.
type formRecorder struct {
	rtl.CompileEnv
	d    *spawn.Desc
	seed uint64
	mask uint64 // the integer registers' width

	touched, stored, jumped bool
	addr, data, target      uint64
	dataWidth               int
	writes                  []machine.Reg
	written                 []uint64
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// reg is register r's value: zero for the hardwired zero, else random.
func (m *formRecorder) reg(r machine.Reg) uint64 {
	if z, _ := m.d.MachineReg(m.d.ZeroFile, m.d.ZeroIndex); m.d.HasZero && r == z {
		return 0
	}
	return mix(m.seed^uint64(r)<<40) & m.mask
}

// mem is the value of the width bytes at addr.
func (m *formRecorder) mem(addr uint64, width int) uint64 {
	v := mix(m.seed ^ addr&m.mask)
	if width < 8 {
		v &= 1<<(8*width) - 1
	}
	return v
}

func (m *formRecorder) ReadReg(file string, idx int64) (uint64, error) {
	r, ok := m.d.MachineReg(file, idx)
	if !ok {
		return 0, fmt.Errorf("no register %s[%d]", file, idx)
	}
	return m.reg(r), nil
}

func (m *formRecorder) WriteReg(file string, idx int64, v uint64) error {
	r, ok := m.d.MachineReg(file, idx)
	if !ok {
		return fmt.Errorf("no register %s[%d]", file, idx)
	}
	m.writes, m.written = append(m.writes, r), append(m.written, v&m.mask)
	return nil
}

func (m *formRecorder) touch(addr uint64) {
	if !m.touched {
		m.touched, m.addr = true, addr&m.mask
	}
}

func (m *formRecorder) ReadMem(addr uint64, width int) (uint64, error) {
	m.touch(addr)
	return m.mem(addr, width), nil
}

func (m *formRecorder) WriteMem(addr uint64, width int, v uint64) error {
	m.touch(addr)
	if !m.stored {
		m.stored, m.data, m.dataWidth = true, v, width
	}
	return nil
}

func (m *formRecorder) PC() uint64                     { return formPC }
func (m *formRecorder) SetPC(v uint64, _ bool)         { m.jumped, m.target = true, v&m.mask }
func (m *formRecorder) Annul()                         {}
func (m *formRecorder) Trap(uint64) error              { return nil }
func (m *formRecorder) Special(string, []uint64) error { return rtl.ErrDynamic }

// formWords sweeps def: every operand at each of the boundary sweep's
// in-range values (under the field test that makes it read), with the
// definition's other free bits zero and random.
func formWords(d *spawn.Desc, def *spawn.InstDef, rng *rand.Rand) []uint32 {
	words := []uint32{def.Match}
	for i := range def.Info.Operands {
		o := &def.Info.Operands[i]
		var args []spawn.Arg
		fixed := def.Mask | o.Field.Mask()
		if g := o.Guard; g != nil {
			v := g.Val
			if !g.Eq {
				v ^= 1
			}
			args, fixed = append(args, spawn.Arg{Field: g.Field.Name, Val: int64(v)}), fixed|g.Field.Mask()
		}
		in, _ := o.Extremes(d)
		for _, v := range in {
			if w, err := d.Encode(def.Name, append(slices.Clip(args), spawn.Arg{Field: o.Field.Name, Val: v})...); err == nil {
				words = append(words, w, w|rng.Uint32()&^fixed)
			}
		}
	}
	return words
}

// TestDerivedFormsMatchExec checks the operand forms spawn derives
// against rtl.Exec on every definition of every ISA: for each swept
// word and several random states, the first memory address the word
// touches, or an indirect transfer's target, is Addr's; a transfer
// writes only Addr's link; a store's first write stores Addr's data
// register; and a word with a Def writes its one register with the
// Def's value.  The definitions whose memory access or indirect
// transfer has no address form are pinned by name.
func TestDerivedFormsMatchExec(t *testing.T) {
	for _, isa := range []struct {
		name   string
		dec    *spawn.TableDecoder
		noAddr []string
	}{
		{"sparc", sparc.NewDecoder(), nil},
		{"mips", mips.NewDecoder(), nil},
		// pc := R[rb] & ~3: a masked register is no address form.
		{"alpha", alpha.NewDecoder(), []string{"jmpj", "jsr", "retj"}},
	} {
		t.Run(isa.name, func(t *testing.T) {
			d := isa.dec.Desc()
			mask := ^uint64(0)
			for _, rf := range d.Files {
				if rf.Typ == "integer" && rf.Count > 0 && rf.Width < 64 {
					mask = 1<<rf.Width - 1
				}
			}
			rng := rand.New(rand.NewSource(1))
			noAddr, noDef := map[string]bool{}, map[string]bool{}
			var addrs, links, datas, defs int
			for _, def := range d.Insts {
				for _, w := range formWords(d, def, rng) {
					inst := isa.dec.Decode(w)
					sem, ok := inst.Sem().(*spawn.InstSem)
					if !ok || sem.Def != def {
						continue
					}
					for s := 0; s < 4; s++ {
						m := &formRecorder{CompileEnv: sem.CompileEnv(), d: d, seed: rng.Uint64(), mask: mask}
						if rtl.Exec(def.Sem, m) != nil {
							continue
						}
						where := fmt.Sprintf("%s %08x seed %d", def.Name, w, m.seed)
						operand := func(reg bool, r machine.Reg, k int64) uint64 {
							if reg {
								return m.reg(r)
							}
							return uint64(k)
						}
						a, hasAddr := inst.Addr()
						ea := (m.reg(a.Base) + operand(a.HasIndex, a.Index, a.Disp)) & mask
						_, static := inst.StaticTarget(formPC)
						switch {
						case hasAddr && m.touched:
							addrs++
							if ea != m.addr {
								t.Errorf("%s: Addr %+v is %#x, first access at %#x", where, a, ea, m.addr)
							}
						case hasAddr && m.jumped:
							addrs++
							if ea != m.target {
								t.Errorf("%s: Addr %+v is %#x, target %#x", where, a, ea, m.target)
							}
							if want := []machine.Reg{a.Link}; a.HasLink && !slices.Equal(m.writes, want) || !a.HasLink && len(m.writes) != 0 {
								t.Errorf("%s: transfer writes %v, Addr %+v", where, m.writes, a)
							}
							if a.HasLink {
								links++
							}
						case hasAddr:
							t.Errorf("%s: Addr %+v, but the word touches no memory and does not jump", where, a)
						case m.touched || m.jumped && !static:
							noAddr[def.Name] = true
						}
						if a.HasData {
							datas++
							bytes := uint64(1)<<(8*m.dataWidth) - 1
							if !m.stored || m.reg(a.Data)&bytes != m.data&bytes {
								t.Errorf("%s: Addr %+v stores %#x, first write %#x (%v)", where, a, m.reg(a.Data), m.data, m.stored)
							}
						}
						var regs []machine.Reg
						var val uint64
						for i, r := range m.writes {
							if r != machine.RegPSR {
								regs, val = append(regs, r), m.written[i]
							}
						}
						df, hasDef := inst.Def()
						if !hasDef {
							if len(regs) == 1 && regs[0].IsInt() && !m.stored && !m.jumped {
								noDef[def.Name] = true
							}
							continue
						}
						defs++
						b := operand(df.HasB, df.B, df.K)
						var want uint64
						switch df.Op {
						case machine.DefConst:
							want = uint64(df.K)
						case machine.DefAdd:
							want = m.reg(df.A) + b
						case machine.DefSub:
							want = m.reg(df.A) - b
						case machine.DefOr:
							want = m.reg(df.A) | b
						case machine.DefShl:
							want = uint64(uint32(m.reg(df.A)) << (b & 31))
						case machine.DefLoad:
							want = m.mem(m.reg(df.A)+b, int(df.Width))
						}
						if len(regs) != 1 || regs[0] != df.Dst || val != want&mask {
							t.Errorf("%s: Def %+v is %#x, the word writes %v = %#x", where, df, want&mask, regs, val)
						}
					}
				}
			}
			if got := sortedKeys(noAddr); !slices.Equal(got, isa.noAddr) {
				t.Errorf("definitions without an address form %v, want %v", got, isa.noAddr)
			}
			if addrs == 0 || defs == 0 {
				t.Errorf("checked %d addresses and %d defs", addrs, defs)
			}
			t.Logf("%d addresses (%d links, %d data registers), %d defs; no address form: %v; integer writes without a def: %v",
				addrs, links, datas, defs, sortedKeys(noAddr), sortedKeys(noDef))
		})
	}
}

func sortedKeys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
