package machine_test

import (
	"strings"
	"testing"

	"eel/internal/alpha"
	"eel/internal/machine"
	"eel/internal/mips"
	"eel/internal/sparc"
	"eel/internal/spawn"
)

// Register names of each convention's manual, mapped to this
// repository's register numbers.
var (
	sparcNames = func() map[string]machine.Reg {
		m := map[string]machine.Reg{"sp": 14, "fp": 30}
		for i, bank := range []string{"g", "o", "l", "i"} {
			for n := 0; n < 8; n++ {
				m[bank+string(rune('0'+n))] = machine.Reg(8*i + n)
			}
		}
		m["y"], m["psr"], m["fsr"] = machine.RegY, machine.RegPSR, machine.RegFSR
		return m
	}()
	// MIPS o32 names (System V ABI, MIPS Processor Supplement,
	// table 3-18).
	o32Names = numbered("zero at v0 v1 a0 a1 a2 a3 t0 t1 t2 t3 t4 t5 t6 t7 " +
		"s0 s1 s2 s3 s4 s5 s6 s7 t8 t9 k0 k1 gp sp fp ra hi lo")
	// Alpha calling-standard names (Calling Standard for Alpha
	// Systems, table 2-1).
	alphaNames = numbered("v0 t0 t1 t2 t3 t4 t5 t6 t7 s0 s1 s2 s3 s4 s5 fp " +
		"a0 a1 a2 a3 a4 a5 t8 t9 t10 t11 ra pv at gp sp zero")
)

// numbered maps the i-th name to register i.
func numbered(names string) map[string]machine.Reg {
	m := map[string]machine.Reg{}
	for i, n := range strings.Fields(names) {
		m[n] = machine.Reg(i)
	}
	return m
}

// regs builds a set from manual register names.
func regs(t *testing.T, names map[string]machine.Reg, list string) machine.RegSet {
	t.Helper()
	var s machine.RegSet
	for _, n := range strings.Fields(list) {
		r, ok := names[n]
		if !ok {
			t.Fatalf("no register named %q", n)
		}
		s = s.Add(r)
	}
	return s
}

// TestABIPinnedToManuals pins every registered calling convention to
// its manual, written in the manual's register names.
func TestABIPinnedToManuals(t *testing.T) {
	type want struct {
		nameOfArch                   string
		names                        map[string]machine.Reg
		zero, sp, fp, ra, res0, res1 string
		callUse, callDef, exitLive   string
		floatsClobbered              bool
	}
	cases := []want{{
		nameOfArch: "sparc", names: sparcNames,
		zero: "g0", sp: "sp", fp: "fp", ra: "o7", res0: "g6", res1: "g7",
		callUse:         "o0 o1 o2 o3 o4 o5 sp o7 fp",
		callDef:         "g1 g2 g3 g4 g5 g6 g7 o0 o1 o2 o3 o4 o5 sp o7 y psr fsr",
		floatsClobbered: true,
		exitLive:        "o0 sp o7 i0 i1 i2 i3 i4 i5 fp i7",
	}, {
		nameOfArch: "mips32e", names: o32Names,
		zero: "zero", sp: "sp", fp: "fp", ra: "ra", res0: "k0", res1: "k1",
		callUse:  "a0 a1 a2 a3 gp sp fp ra",
		callDef:  "at v0 v1 a0 a1 a2 a3 t0 t1 t2 t3 t4 t5 t6 t7 t8 t9 ra hi lo",
		exitLive: "v0 v1 s0 s1 s2 s3 s4 s5 s6 s7 gp sp fp ra",
	}, {
		nameOfArch: "alpha64e", names: alphaNames,
		zero: "zero", sp: "sp", fp: "fp", ra: "ra", res0: "at", res1: "t11",
		callUse:  "a0 a1 a2 a3 a4 a5 fp ra pv gp sp",
		callDef:  "v0 t0 t1 t2 t3 t4 t5 t6 t7 a0 a1 a2 a3 a4 a5 t8 t9 t10 t11 ra pv at",
		exitLive: "v0 s0 s1 s2 s3 s4 s5 fp ra gp sp",
	}}
	for _, c := range cases {
		arch, ok := machine.ArchByName(c.nameOfArch)
		if !ok {
			t.Fatalf("%s not registered", c.nameOfArch)
		}
		a, n := arch.ABI, c.names
		wantDef := regs(t, n, c.callDef)
		if c.floatsClobbered {
			wantDef = wantDef.Union(machine.FloatRegs())
		}
		got := []struct {
			what      string
			have, wnt machine.RegSet
		}{
			{"zero", machine.NewRegSet(a.Zero), regs(t, n, c.zero)},
			{"sp", machine.NewRegSet(a.SP), regs(t, n, c.sp)},
			{"fp", machine.NewRegSet(a.FP), regs(t, n, c.fp)},
			{"ra", machine.NewRegSet(a.RA), regs(t, n, c.ra)},
			{"reserved[0]", machine.NewRegSet(a.Reserved[0]), regs(t, n, c.res0)},
			{"reserved[1]", machine.NewRegSet(a.Reserved[1]), regs(t, n, c.res1)},
			{"call use", a.CallUse, regs(t, n, c.callUse)},
			{"call def", a.CallDef, wantDef},
			{"exit live", a.ExitLive, regs(t, n, c.exitLive)},
		}
		for _, g := range got {
			if g.have != g.wnt {
				t.Errorf("%s %s = %s, want %s", c.nameOfArch, g.what, g.have, g.wnt)
			}
		}
		// Scavengeable is the integer file minus every register with
		// a fixed meaning; the editor's pair is in neither the call
		// inputs nor the exit set.
		fixed := regs(t, n, strings.Join([]string{c.zero, c.sp, c.fp, c.ra, c.res0, c.res1}, " "))
		if s := a.Scavengeable(); s != machine.IntRegs().Minus(fixed) || s.Len() != 26 {
			t.Errorf("%s scavengeable = %s (%d registers), want the integer file minus %s", c.nameOfArch, s, s.Len(), fixed)
		}
		res := machine.NewRegSet(a.Reserved[0], a.Reserved[1])
		if !res.Intersect(a.CallUse.Union(a.ExitLive)).IsEmpty() {
			t.Errorf("%s: reserved pair %s is read by calls or live at exit", c.nameOfArch, res)
		}
	}
}

// TestABIMatchesDescription: the zero register is the description's
// "zero is" register, the return-address register is the link of
// each machine's call definitions, for both the canonical call words
// of each manual and every definition whose link its own fixed fields
// determine, and the nop decodes to a compute instruction with no
// effect: it touches no memory, writes no register but the zero, and
// neither transfers nor annuls.
func TestABIMatchesDescription(t *testing.T) {
	for _, c := range []struct {
		arch  string
		desc  *spawn.Desc
		calls []uint32 // canonical call words
	}{
		{"sparc", sparc.Desc(), []uint32{0x40000004}},  // call .+16
		{"mips32e", mips.Desc(), []uint32{0x0c000004}}, // jal 0x10
		{"alpha64e", alpha.Desc(), []uint32{0xd3400001, // bsr ra, .+8
			0x6b5b4000}}, // jsr ra, (pv)
	} {
		arch, _ := machine.ArchByName(c.arch)
		a, d := arch.ABI, c.desc
		if !d.HasZero {
			t.Fatalf("%s declares no zero register", c.arch)
		}
		if z, ok := d.MachineReg(d.ZeroFile, d.ZeroIndex); !ok || z != a.Zero {
			t.Errorf("%s: zero is r%d in the description, r%d in the ABI", c.arch, z, a.Zero)
		}
		dec := arch.NewDecoder()
		if n := dec.Decode(a.Nop); n.Category() != machine.CatCompute || n.ReadsMem() || n.WritesMem() ||
			!n.Writes().Remove(a.Zero).IsEmpty() || n.EndsBlock() {
			t.Errorf("%s: nop %#08x is %v writing %s, want an effect-free compute word", c.arch, a.Nop, n, n.Writes())
		}
		for _, w := range c.calls {
			def := d.DecodeRaw(w)
			if def == nil {
				t.Fatalf("%s: %#08x decodes to nothing", c.arch, w)
			}
			cat := dec.Decode(w).Category()
			eff := d.EffectsFor(def, d.FieldVals(w))
			if (cat != machine.CatCallDirect && cat != machine.CatCallIndirect) || !eff.HasLink || eff.Link != a.RA {
				t.Errorf("%s: %s (%#08x) is %v linking r%d (link %v), want a call linking r%d", c.arch, def.Name, w, cat, eff.Link, eff.HasLink, a.RA)
			}
		}
		for _, def := range d.Insts {
			if eff := def.Info.Effects; eff.HasLink && eff.Link != a.RA {
				t.Errorf("%s: %s links r%d, the ABI's return address is r%d", c.arch, def.Name, eff.Link, a.RA)
			}
		}
	}
}
