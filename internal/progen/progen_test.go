package progen_test

import (
	"bytes"
	"testing"

	_ "eel/internal/aout"
	"eel/internal/binfile"
	"eel/internal/core"
	_ "eel/internal/elf32"
	"eel/internal/machine"
	"eel/internal/progen"
	"eel/internal/sim"
	"eel/internal/sparc"
)

// runFile executes an image and returns the CPU.
func sparcName(w uint32) string {
	return sparc.NewDecoder().Decode(w).Name()
}

func runFile(t *testing.T, f *binfile.File, maxSteps uint64) (*sim.CPU, string) {
	t.Helper()
	mem := sim.NewMemory()
	for _, s := range f.Sections {
		mem.LoadSegment(s.Addr, s.Data)
	}
	cpu := sim.New(sparc.NewDecoder(), mem)
	var out bytes.Buffer
	cpu.Stdout = &out
	text := f.Text()
	cpu.TextStart, cpu.TextEnd = text.Addr, text.End()
	cpu.Reset(f.Entry, 0x7ff000)
	if err := cpu.Run(maxSteps); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cpu.Halted {
		t.Fatal("did not halt")
	}
	return cpu, out.String()
}

func TestGeneratedProgramRuns(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		p := progen.MustGenerate(progen.DefaultConfig(seed))
		cpu, _ := runFile(t, p.File, 50_000_000)
		t.Logf("seed %d: %d instructions, exit %d, %d switches",
			seed, cpu.InstCount, cpu.ExitCode, p.Switches)
		if cpu.InstCount < 100 {
			t.Errorf("seed %d: suspiciously short run (%d insts)", seed, cpu.InstCount)
		}
	}
}

func TestSunProProgramRuns(t *testing.T) {
	cfg := progen.DefaultConfig(7)
	cfg.Personality = progen.SunPro
	p := progen.MustGenerate(cfg)
	if p.Continuations == 0 {
		t.Skip("seed produced no continuations")
	}
	cpu, _ := runFile(t, p.File, 50_000_000)
	if cpu.InstCount < 100 {
		t.Errorf("short run: %d", cpu.InstCount)
	}
}

func TestDeterministic(t *testing.T) {
	a := progen.MustGenerate(progen.DefaultConfig(42))
	b := progen.MustGenerate(progen.DefaultConfig(42))
	if a.Source != b.Source {
		t.Error("same seed produced different programs")
	}
	c := progen.MustGenerate(progen.DefaultConfig(43))
	if a.Source == c.Source {
		t.Error("different seeds produced identical programs")
	}
}

// counterSnippet is the Figure 2 increment for testing edits.
func counterSnippet(t *testing.T, addr uint32) *core.Snippet {
	t.Helper()
	p1, p2 := machine.Reg(16), machine.Reg(17)
	hi, _ := sparc.EncodeSethi(p1, addr)
	ld, _ := sparc.EncodeOp3Imm("ld", p2, p1, int32(sparc.Lo(addr)))
	add, _ := sparc.EncodeOp3Imm("add", p2, p2, 1)
	st, _ := sparc.EncodeOp3Imm("st", p2, p1, int32(sparc.Lo(addr)))
	return core.NewSnippet([]uint32{hi, ld, add, st}, []machine.Reg{p1, p2})
}

// editAllBranches instruments every editable out-edge of every
// multi-successor block in every routine and returns counter count.
func editAllBranches(t *testing.T, e *core.Executable) int {
	t.Helper()
	n := 0
	e.EachRoutine(func(r *core.Routine) error {
		g, err := r.ControlFlowGraph()
		if err != nil {
			t.Fatalf("cfg %s: %v", r.Name, err)
		}
		for _, b := range g.Blocks {
			if len(b.Succ) <= 1 {
				continue
			}
			for _, edge := range b.Succ {
				if edge.Uneditable {
					continue
				}
				addr := e.AllocData(4)
				if err := r.AddCodeAlong(edge, counterSnippet(t, addr)); err != nil {
					t.Fatalf("edit %s: %v", r.Name, err)
				}
				n++
			}
		}
		if err := r.ProduceEditedRoutine(); err != nil {
			t.Fatalf("produce %s: %v", r.Name, err)
		}
		return nil
	})
	return n
}

// TestEndToEndInstrumentedEquivalence is the repository's strongest
// validation: generated programs, fully instrumented on every branch
// edge, must behave identically after editing.
func TestEndToEndInstrumentedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := progen.DefaultConfig(seed)
		if seed%2 == 0 {
			cfg.Personality = progen.SunPro
		}
		p := progen.MustGenerate(cfg)
		orig, origOut := runFile(t, p.File, 50_000_000)

		e, err := core.NewExecutable(p.File)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ReadContents(); err != nil {
			t.Fatal(err)
		}
		edits := editAllBranches(t, e)
		edited, err := e.BuildEdited()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, gotOut := runFile(t, edited, 500_000_000)
		if got.ExitCode != orig.ExitCode {
			t.Errorf("seed %d: exit %d != original %d", seed, got.ExitCode, orig.ExitCode)
		}
		if gotOut != origOut {
			t.Errorf("seed %d: output diverged", seed)
		}
		if got.InstCount <= orig.InstCount {
			t.Errorf("seed %d: instrumented run not longer (%d vs %d)", seed, got.InstCount, orig.InstCount)
		}
		t.Logf("seed %d (%v): %d edits, %d→%d insts, exit %d",
			seed, cfg.Personality, edits, orig.InstCount, got.InstCount, orig.ExitCode)
	}
}

func TestStrippedEndToEnd(t *testing.T) {
	cfg := progen.DefaultConfig(3)
	cfg.Strip = true
	p := progen.MustGenerate(cfg)
	orig, _ := runFile(t, p.File, 50_000_000)

	e, err := core.NewExecutable(p.File)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	if len(e.Routines()) < 2 {
		t.Fatalf("stripped recovery found only %d routines", len(e.Routines()))
	}
	edited, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runFile(t, edited, 500_000_000)
	if got.ExitCode != orig.ExitCode {
		t.Errorf("stripped: exit %d != %d", got.ExitCode, orig.ExitCode)
	}
}

// TestElf32Pipeline pushes a generated program through the second
// container format: serialize as ELF32, reload, instrument, run —
// the same tool works unchanged over either format (the paper's
// system-independence claim).
func TestElf32Pipeline(t *testing.T) {
	p := progen.MustGenerate(progen.DefaultConfig(12))
	orig, _ := runFile(t, p.File, 50_000_000)

	// Re-container as ELF32.
	elfImg := *p.File
	elfImg.Format = "elf32"
	data, err := binfile.Write(&elfImg)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := binfile.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Format != "elf32" {
		t.Fatalf("format = %s", reloaded.Format)
	}
	e, err := core.NewExecutable(reloaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.ReadContents(); err != nil {
		t.Fatal(err)
	}
	editAllBranches(t, e)
	edited, err := e.BuildEdited()
	if err != nil {
		t.Fatal(err)
	}
	if edited.Format != "elf32" {
		t.Errorf("edited format = %s", edited.Format)
	}
	got, _ := runFile(t, edited, 500_000_000)
	if got.ExitCode != orig.ExitCode {
		t.Errorf("elf32 pipeline diverged: %d vs %d", got.ExitCode, orig.ExitCode)
	}
}

// TestFloatingPointFeature ensures generated programs exercise the
// FP file when the generator emits fp features.
func TestFloatingPointFeature(t *testing.T) {
	found := false
	for seed := int64(1); seed <= 6 && !found; seed++ {
		p := progen.MustGenerate(progen.DefaultConfig(seed))
		for _, w := range p.TextWords() {
			if n := sparcName(w); n == "fadds" || n == "fitos" {
				found = true
				break
			}
		}
	}
	if !found {
		t.Error("no floating-point instructions generated across seeds")
	}
}

// TestSelfModProgram pins the -gen-selfmod workload: the program must
// halt with the same exit code and output in every engine, must leave
// non-SelfMod generation byte-identical (no extra rng draws), and must
// actually exercise the routine tier's promote/deopt cycle.
func TestSelfModProgram(t *testing.T) {
	base := progen.MustGenerate(progen.DefaultConfig(11))
	cfg := progen.DefaultConfig(11)
	cfg.SelfMod = true
	p := progen.MustGenerate(cfg)

	// SelfMod only appends: the shared prefix of both sources is
	// identical, so plain generation is unaffected by the feature.
	if got, want := progen.MustGenerate(progen.DefaultConfig(11)).Source, base.Source; got != want {
		t.Fatal("generating a SelfMod program perturbed a later plain generation")
	}

	ref, refOut := runFile(t, p.File, 50_000_000)

	mem := sim.NewMemory()
	for _, s := range p.File.Sections {
		mem.LoadSegment(s.Addr, s.Data)
	}
	cpu := sim.New(sparc.NewDecoder(), mem)
	var out bytes.Buffer
	cpu.Stdout = &out
	text := p.File.Text()
	cpu.TextStart, cpu.TextEnd = text.Addr, text.End()
	cpu.Engine = sim.EngineRoutine
	cpu.RoutineSync = true
	cpu.RoutineHotThreshold = 1
	cpu.Reset(p.File.Entry, 0x7ff000)
	if err := cpu.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if cpu.ExitCode != ref.ExitCode || out.String() != refOut {
		t.Fatalf("routine tier diverged on self-modifying program: exit %d vs %d", cpu.ExitCode, ref.ExitCode)
	}
	k := cpu.Counters()
	if k.RoutinesCompiled == 0 {
		t.Error("self-mod program compiled no routines")
	}
	if k.RoutineDeopts == 0 {
		t.Error("self-mod program triggered no deopts")
	}
}
