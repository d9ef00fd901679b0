package sim

import (
	"bytes"
	"errors"
	"testing"

	"eel/internal/binfile"
	"eel/internal/machine"
	"eel/internal/progen"
)

// runMode executes f to completion in the chosen engine and returns
// the final CPU and its output.
func runMode(t *testing.T, f *binfile.File, eng Engine) (*CPU, []byte) {
	t.Helper()
	var out bytes.Buffer
	cpu := LoadFile(f, &out)
	cpu.Engine = eng
	if err := cpu.Run(500_000_000); err != nil {
		t.Fatalf("run (%s): %v", eng, err)
	}
	if !cpu.Halted {
		t.Fatalf("program did not halt (%s)", eng)
	}
	return cpu, out.Bytes()
}

// TestTranslatedMatchesInterpreter is the differential test: every
// progen workload flavour runs under both the single-step interpreter
// and the translation-cache engine, and the architected results —
// exit code, output, instruction and annul counts, registers, and
// final memory — must be bit-identical.
func TestTranslatedMatchesInterpreter(t *testing.T) {
	configs := []struct {
		name string
		cfg  progen.Config
	}{
		{"gcc-default", progen.DefaultConfig(1)},
		{"gcc-seed7", progen.DefaultConfig(7)},
		{"gcc-large", func() progen.Config {
			c := progen.DefaultConfig(2012)
			c.Routines = 60
			return c
		}()},
		{"sunpro", func() progen.Config {
			c := progen.DefaultConfig(11)
			c.Personality = progen.SunPro
			return c
		}()},
		{"memheavy", func() progen.Config {
			c := progen.DefaultConfig(1011)
			c.MemHeavy = true
			return c
		}()},
		{"kitchen-sink", func() progen.Config {
			c := progen.DefaultConfig(99)
			c.Personality = progen.SunPro
			c.DataTables = true
			c.MultiEntry = true
			c.DebugLabels = true
			c.HiddenFrac = 0.2
			return c
		}()},
	}
	engines := []Engine{EngineTranslated, EngineChained}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			p, err := progen.Generate(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			interp, interpOut := runMode(t, p.File, EngineInterp)
			for _, eng := range engines {
				trans, transOut := runMode(t, p.File, eng)

				if interp.ExitCode != trans.ExitCode {
					t.Errorf("%s: exit code: interp %d, got %d", eng, interp.ExitCode, trans.ExitCode)
				}
				if !bytes.Equal(interpOut, transOut) {
					t.Errorf("%s: output diverged: interp %d bytes, got %d bytes", eng, len(interpOut), len(transOut))
				}
				if interp.InstCount != trans.InstCount {
					t.Errorf("%s: InstCount: interp %d, got %d", eng, interp.InstCount, trans.InstCount)
				}
				if interp.AnnulCount != trans.AnnulCount {
					t.Errorf("%s: AnnulCount: interp %d, got %d", eng, interp.AnnulCount, trans.AnnulCount)
				}
				if interp.R != trans.R {
					t.Errorf("%s: integer registers diverged:\ninterp %v\ngot    %v", eng, interp.R, trans.R)
				}
				if interp.F != trans.F {
					t.Errorf("%s: float registers diverged", eng)
				}
				if interp.Y != trans.Y || interp.PSR != trans.PSR || interp.FSR != trans.FSR {
					t.Errorf("%s: special registers diverged: Y %x/%x PSR %x/%x FSR %x/%x",
						eng, interp.Y, trans.Y, interp.PSR, trans.PSR, interp.FSR, trans.FSR)
				}
				if len(interp.windows) != len(trans.windows) {
					t.Errorf("%s: window depth: interp %d, got %d", eng, len(interp.windows), len(trans.windows))
				}
				if addr, ok := interp.Mem.Diff(trans.Mem); !ok {
					t.Errorf("%s: memory diverged at %#x: interp %#x, got %#x",
						eng, addr, interp.Mem.ByteAt(addr), trans.Mem.ByteAt(addr))
				}
				if trans.Counters().Builds == 0 {
					t.Errorf("%s: translation cache built no blocks; jit path not exercised", eng)
				}
			}
		})
	}
}

// TestJITInvalidatesOnTextWrite checks the self-modifying-code path:
// writing into watched text flushes the block cache, and re-execution
// picks up the edited instruction.
func TestJITInvalidatesOnTextWrite(t *testing.T) {
	cpu, prog := load(t, `
	mov 21, %o0
	mov 1, %g1
	ta 0
`, 0x10000)
	cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	run(t, cpu)
	if cpu.ExitCode != 21 {
		t.Fatalf("exit = %d, want 21", cpu.ExitCode)
	}
	k := cpu.Counters()
	if k.Builds == 0 {
		t.Fatal("no blocks built; jit not engaged")
	}

	// Patch the mov's immediate from 21 to 42 (simm13 bits 12:0).
	word := cpu.Mem.Read32(prog.Base)
	cpu.Mem.Write32(prog.Base, word&^0x1fff|42)
	if flushes := cpu.Counters().Flushes; flushes <= k.Flushes {
		t.Fatalf("text write did not flush the cache (flushes %d -> %d)", k.Flushes, flushes)
	}

	cpu.Reset(prog.Base, 0x7ff000)
	run(t, cpu)
	if cpu.ExitCode != 42 {
		t.Fatalf("exit after patch = %d, want 42", cpu.ExitCode)
	}
}

// TestJITDeoptOnExec checks that setting OnExec forces single-step
// observation of every executed instruction with unchanged counts.
func TestJITDeoptOnExec(t *testing.T) {
	src := `
	mov 5, %o1
	clr %o0
loop:
	add %o0, %o1, %o0
	subcc %o1, 1, %o1
	bne loop
	nop
	mov 1, %g1
	ta 0
`
	ref, refProg := load(t, src, 0x10000)
	ref.TextStart, ref.TextEnd = refProg.Base, refProg.Base+uint32(len(refProg.Bytes))
	ref.Engine = EngineInterp
	run(t, ref)

	cpu, prog := load(t, src, 0x10000)
	cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
	count := uint64(0)
	cpu.OnExec = func(pc uint32, _ *machine.Inst) { count++ }
	run(t, cpu)

	if cpu.InstCount != ref.InstCount || cpu.AnnulCount != ref.AnnulCount {
		t.Errorf("counts diverged: got %d/%d, want %d/%d",
			cpu.InstCount, cpu.AnnulCount, ref.InstCount, ref.AnnulCount)
	}
	if count != cpu.InstCount {
		t.Errorf("OnExec observed %d instructions, InstCount %d", count, cpu.InstCount)
	}
	if builds := cpu.Counters().Builds; builds != 0 {
		t.Errorf("jit built %d blocks while OnExec was set; want deopt to single-step", builds)
	}
	if cpu.ExitCode != ref.ExitCode || cpu.R != ref.R {
		t.Error("deoptimized run diverged from interpreter")
	}
}

// TestJITStepLimitParity checks that both engines fault with the same
// step-limit state.
func TestJITStepLimitParity(t *testing.T) {
	src := `
loop:
	ba loop
	nop
`
	faultOf := func(eng Engine) (*CPU, *Fault) {
		cpu, prog := load(t, src, 0x10000)
		cpu.TextStart, cpu.TextEnd = prog.Base, prog.Base+uint32(len(prog.Bytes))
		cpu.Engine = eng
		err := cpu.Run(100)
		var f *Fault
		if !errors.As(err, &f) || !errors.Is(err, ErrStepLimit) {
			t.Fatalf("%s: err = %v, want step-limit fault", eng, err)
		}
		return cpu, f
	}
	icpu, ifault := faultOf(EngineInterp)
	tcpu, tfault := faultOf(EngineChained)
	if icpu.InstCount != tcpu.InstCount || ifault.PC != tfault.PC {
		t.Errorf("limit state diverged: interp %d@%#x, translated %d@%#x",
			icpu.InstCount, ifault.PC, tcpu.InstCount, tfault.PC)
	}
}

// TestMemoryAlignedFastPath pins the aligned Read32/Write32 fast path
// to the byte-at-a-time semantics.
func TestMemoryAlignedFastPath(t *testing.T) {
	m := NewMemory()
	m.Write32(0x2000, 0xdeadbeef)
	if got := m.Read32(0x2000); got != 0xdeadbeef {
		t.Fatalf("Read32 = %#x", got)
	}
	// Big-endian byte order must match SetByte/ByteAt.
	for i, want := range []byte{0xde, 0xad, 0xbe, 0xef} {
		if got := m.ByteAt(0x2000 + uint32(i)); got != want {
			t.Errorf("byte %d = %#x, want %#x", i, got, want)
		}
	}
	// Unaligned accesses still work via the slow path.
	m.Write32(0x3001, 0x01020304)
	if got := m.Read32(0x3001); got != 0x01020304 {
		t.Fatalf("unaligned Read32 = %#x", got)
	}
	// Page-boundary aligned access at the last word of a page.
	m.Write32(pageSize-4, 0xa1b2c3d4)
	if got := m.Read32(pageSize - 4); got != 0xa1b2c3d4 {
		t.Fatalf("page-tail Read32 = %#x", got)
	}
	if got := m.Read32(0x9000); got != 0 {
		t.Fatalf("unmapped Read32 = %#x, want 0", got)
	}
}
