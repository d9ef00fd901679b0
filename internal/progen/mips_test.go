package progen_test

import (
	"bytes"
	"testing"

	"eel/internal/mips"
	"eel/internal/progen"
	"eel/internal/sim"
)

func mipsConfig(seed int64) progen.Config {
	cfg := progen.DefaultConfig(seed)
	cfg.ISA = "mips"
	return cfg
}

// runMIPS executes the image on one engine.
func runMIPS(t *testing.T, p *progen.Program, eng sim.Engine) (*sim.CPU, string) {
	t.Helper()
	var out bytes.Buffer
	cpu := sim.LoadFileWith(mips.NewDecoder(), p.File, &out)
	cpu.Engine = eng
	if err := cpu.Run(50_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cpu.Halted {
		t.Fatal("did not halt")
	}
	return cpu, out.String()
}

func TestMIPSGeneratedProgramRuns(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := progen.MustGenerate(mipsConfig(seed))
		cpu, _ := runMIPS(t, p, sim.EngineInterp)
		t.Logf("seed %d: %d instructions, exit %d, %d indirect, %d hidden",
			seed, cpu.InstCount, cpu.ExitCode, p.Switches, p.Hidden)
		if cpu.InstCount < 100 {
			t.Errorf("seed %d: suspiciously short run (%d insts)", seed, cpu.InstCount)
		}
	}
}

// TestMIPSLockstep runs the same program on the interpreter, the
// unchained translation cache, and the chained engine, requiring
// bit-identical results — the MIPS counterpart of the SPARC
// engine-equivalence tests, driven entirely by the description.
func TestMIPSLockstep(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := progen.MustGenerate(mipsConfig(seed))
		ref, refOut := runMIPS(t, p, sim.EngineInterp)
		for _, eng := range []sim.Engine{sim.EngineTranslated, sim.EngineChained} {
			cpu, out := runMIPS(t, p, eng)
			if cpu.ExitCode != ref.ExitCode || cpu.InstCount != ref.InstCount {
				t.Errorf("seed %d %s: exit=%d insts=%d, interp exit=%d insts=%d",
					seed, eng, cpu.ExitCode, cpu.InstCount, ref.ExitCode, ref.InstCount)
			}
			if out != refOut {
				t.Errorf("seed %d %s: output diverges (%d vs %d bytes)", seed, eng, len(out), len(refOut))
			}
			if a, b := cpu.ArchState(), ref.ArchState(); a != b {
				t.Errorf("seed %d %s: architected state diverges", seed, eng)
			}
		}
	}
}

// TestMIPSDeterministic: the same config must generate bit-identical
// images (the fuzz shrinker depends on this).
func TestMIPSDeterministic(t *testing.T) {
	a := progen.MustGenerate(mipsConfig(42))
	b := progen.MustGenerate(mipsConfig(42))
	if !bytes.Equal(a.File.Text().Data, b.File.Text().Data) {
		t.Error("same config generated different text")
	}
	if a.Source != b.Source {
		t.Error("same config generated different listings")
	}
}

// TestMIPSAllWordsDecode: every non-data word must come from the
// canonical encoders and decode under the description.
func TestMIPSAllWordsDecode(t *testing.T) {
	p := progen.MustGenerate(mipsConfig(3))
	dec := mips.NewDecoder()
	text := p.File.Text()
	data := 0
	for i := 0; i+3 < len(text.Data); i += 4 {
		addr := text.Addr + uint32(i)
		w := uint32(text.Data[i])<<24 | uint32(text.Data[i+1])<<16 |
			uint32(text.Data[i+2])<<8 | uint32(text.Data[i+3])
		if p.IsData(addr) {
			data++
			continue
		}
		if !dec.Decode(w).Valid() {
			t.Errorf("word %08x at %#x does not decode", w, addr)
		}
	}
	t.Logf("%d words, %d data", len(text.Data)/4, data)
}

func TestMIPSConfigErrors(t *testing.T) {
	cfg := mipsConfig(1)
	cfg.Routines = 65
	if _, err := progen.Generate(cfg); err == nil {
		t.Error("65 routines accepted")
	}
	cfg = progen.DefaultConfig(1)
	cfg.ISA = "vax"
	if _, err := progen.Generate(cfg); err == nil {
		t.Error("unknown ISA accepted")
	}
}
