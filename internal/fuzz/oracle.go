package fuzz

import (
	"bytes"
	"fmt"
	"slices"

	"eel/internal/binfile"
	"eel/internal/core"
	"eel/internal/machine"
	_ "eel/internal/mips" // register the MIPS architecture
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/spawn"
)

// Violation is one oracle failure.
type Violation struct {
	Oracle string // "roundtrip", "lockstep", "edited", "sweep"
	Detail string
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

func violate(oracle, format string, args ...any) Violation {
	return Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)}
}

// decoderFor returns a decoder for an ISA name.  A machine's decoders
// share its process-wide memo, whose entries also hold each word's
// compiled semantics, so a decoder per program costs one small object.
func decoderFor(isa string) *spawn.TableDecoder {
	if isSPARC(isa) {
		isa = "sparc"
	}
	info, ok := machine.ArchByName(isa)
	if !ok {
		panic(fmt.Sprintf("fuzz: no architecture registered for %q", isa))
	}
	return info.NewDecoder().(*spawn.TableDecoder)
}

// decoder returns the decoder matching the program's ISA.
func (p *Program) decoder() *spawn.TableDecoder { return decoderFor(p.Cfg.ISA) }

// rebuild reconstructs an instruction word from its definition's
// fixed match bits plus the decoded operand fields.  For a word
// produced by the canonical encoders this is the identity; for
// arbitrary words it is a normalization (bits outside any operand
// field are dropped).
func rebuild(inst *machine.Inst) (uint32, error) {
	sem, ok := inst.Sem().(*spawn.InstSem)
	if !ok {
		return 0, fmt.Errorf("instruction %s has no spawn semantics handle", inst.Name())
	}
	w := sem.Def.Match
	for _, f := range inst.Fields() {
		fld, ok := sem.Desc.Field(f.Name)
		if !ok {
			return 0, fmt.Errorf("instruction %s has unknown field %s", inst.Name(), f.Name)
		}
		w = fld.Insert(w, f.Val)
	}
	return w, nil
}

// CheckRoundTripWords checks the decode→encode direction over every
// word of the generated text segment:
//
//   - every valid word, re-encoded from its decoded operands, decodes
//     back to the same instruction with the same operands, and the
//     re-encoding is a fixed point;
//   - words the generator emitted as instructions (everything outside
//     the embedded data tables) must re-encode bit-identically — the
//     encoders and the decoder agree on every operand bit.
func CheckRoundTripWords(p *Program) []Violation {
	var vs []Violation
	dec := p.decoder()
	text := p.File.Text()
	for i, w := range p.TextWords() {
		addr := text.Addr + uint32(i)*4
		inst := dec.Decode(w)
		if !inst.Valid() {
			if !p.IsData(addr) {
				vs = append(vs, violate("roundtrip",
					"generated instruction %08x at %#x does not decode", w, addr))
			}
			continue
		}
		w2, err := rebuild(inst)
		if err != nil {
			vs = append(vs, violate("roundtrip", "%08x at %#x: %v", w, addr, err))
			continue
		}
		if !p.IsData(addr) && w2 != w {
			vs = append(vs, violate("roundtrip",
				"%s at %#x: re-encoding changed bits %08x -> %08x", inst.Name(), addr, w, w2))
			continue
		}
		inst2 := dec.Decode(w2)
		if !inst2.Valid() || inst2.Name() != inst.Name() {
			vs = append(vs, violate("roundtrip",
				"%s at %#x: normalized word %08x decodes to %q", inst.Name(), addr, w2, inst2.Name()))
			continue
		}
		if !slices.Equal(inst.Fields(), inst2.Fields()) {
			vs = append(vs, violate("roundtrip",
				"%s at %#x: operand fields changed across re-encode of %08x", inst.Name(), addr, w))
			continue
		}
		w3, err := rebuild(inst2)
		if err != nil || w3 != w2 {
			vs = append(vs, violate("roundtrip",
				"%s at %#x: re-encoding is not a fixed point (%08x -> %08x)", inst.Name(), addr, w2, w3))
			continue
		}
		if !p.IsData(addr) {
			sem := inst.Sem().(*spawn.InstSem)
			if _, err := sem.Compiled(); err != nil {
				vs = append(vs, violate("roundtrip",
					"%s at %#x: semantics do not compile: %v", inst.Name(), addr, err))
			}
		}
	}
	return vs
}

// CheckRoundTripSweep checks the encode→decode direction at every
// readable field's boundaries on dec's machine (spawn.CheckEncoding):
// in-range operands must be recovered exactly, sign included, and
// out-of-range operands rejected, never silently truncated.  The sweep
// is deterministic, so it runs once per fuzzing session.
func CheckRoundTripSweep(dec *spawn.TableDecoder) []Violation {
	var vs []Violation
	for _, err := range spawn.CheckEncoding(dec) {
		vs = append(vs, violate("sweep", "%v", err))
	}
	return vs
}

// runResult is one complete execution.
type runResult struct {
	cpu *sim.CPU
	out []byte
	err error
}

// runOnce executes f on a fresh emulator with the given engine,
// converting panics to errors so a harness iteration survives engine
// bugs.
func runOnce(f *binfile.File, maxSteps uint64, eng sim.Engine, dec *spawn.TableDecoder) (res runResult) {
	var buf bytes.Buffer
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("panic: %v", r)
		}
		res.out = buf.Bytes()
	}()
	cpu := sim.LoadFileWith(dec, f, &buf)
	cpu.Engine = eng
	if eng == sim.EngineRoutine {
		// Synchronous promotion at the lowest threshold so every run
		// actually exercises routine-compiled code, deterministically.
		cpu.RoutineSync = true
		cpu.RoutineHotThreshold = 1
	}
	res.cpu = cpu
	res.err = cpu.Run(maxSteps)
	return res
}

// CheckLockstep runs the program to completion on every execution
// engine the target machine supports — the single-step interpreter,
// the translation-cache engine, the chained engine, and the
// whole-routine tier — and requires bit-identical outcomes against
// the interpreter: same error (if any), same output bytes, same
// architected state, same memory image.
func CheckLockstep(p *Program, maxSteps uint64) []Violation {
	d := p.decoder()
	interp := runOnce(p.File, maxSteps, sim.EngineInterp, d)
	var vs []Violation
	for _, eng := range []sim.Engine{sim.EngineTranslated, sim.EngineChained, sim.EngineRoutine} {
		vs = append(vs, lockstepDiff(interp, runOnce(p.File, maxSteps, eng, d), eng)...)
	}
	return vs
}

// lockstepDiff compares one engine's run against the interpreter
// reference.
func lockstepDiff(interp, run runResult, eng sim.Engine) []Violation {
	var vs []Violation
	if (interp.err == nil) != (run.err == nil) ||
		(interp.err != nil && run.err != nil && interp.err.Error() != run.err.Error()) {
		vs = append(vs, violate("lockstep",
			"errors diverge: interpreter=%v %s=%v", interp.err, eng, run.err))
		return vs
	}
	if !bytes.Equal(interp.out, run.out) {
		vs = append(vs, violate("lockstep",
			"output diverges: interpreter wrote %q, %s wrote %q", interp.out, eng, run.out))
	}
	if interp.cpu == nil || run.cpu == nil {
		return vs
	}
	if a, b := interp.cpu.ArchState(), run.cpu.ArchState(); a != b {
		vs = append(vs, violate("lockstep",
			"architected state diverges:\ninterpreter: %s%s: %s", a, eng, b))
	}
	if addr, ok := interp.cpu.Mem.Diff(run.cpu.Mem); !ok {
		vs = append(vs, violate("lockstep", "memory diverges at %#x (%s)", addr, eng))
	}
	return vs
}

// edit rewrites f through internal/core, applying edits, when not
// nil, first.  Panics in the editing pipeline are returned as errors.
func edit(f *binfile.File, edits func(*core.Executable) error) (edited *binfile.File, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	e, err := core.NewExecutable(f)
	if err != nil {
		return nil, err
	}
	if err := e.ReadContents(); err != nil {
		return nil, err
	}
	if edits != nil {
		if err := edits(e); err != nil {
			return nil, err
		}
	}
	return e.BuildEdited()
}

// countEveryInst adds a qpt.CounterSnippet before every editable
// instruction of every routine, so code lands between every two words
// the CFG puts on one path.
func countEveryInst(e *core.Executable) error {
	snip, err := qpt.CounterSnippet(e.AllocData(4))
	if err != nil {
		return err
	}
	return e.EachRoutine(func(r *core.Routine) error {
		g, err := r.ControlFlowGraph()
		if err != nil {
			return err
		}
		for _, b := range g.Blocks {
			for i := 0; i < len(b.Insts) && !b.Uneditable; i++ {
				if err := r.AddCodeBefore(b, i, snip); err != nil {
					return err
				}
			}
		}
		return r.ProduceEditedRoutine()
	})
}

// CheckEdited verifies that editing preserves behavior: the original,
// an identity relayout (BuildEdited with no edits), a fully
// qpt-instrumented build, and a build with a counter before every
// editable instruction must all exit with the same code and write the
// same output.
func CheckEdited(p *Program, maxSteps uint64) []Violation {
	if !isSPARC(p.Cfg.ISA) {
		// The editing pipeline (internal/core, internal/qpt) analyzes
		// SPARC executables only; the oracle does not apply elsewhere.
		return nil
	}
	dec := p.decoder()
	orig := runOnce(p.File, maxSteps, sim.EngineChained, dec)
	if orig.err != nil {
		return []Violation{violate("edited", "original program fails to run: %v", orig.err)}
	}
	if orig.cpu == nil || !orig.cpu.Halted {
		return []Violation{violate("edited", "original program did not halt")}
	}
	var vs []Violation
	for _, mode := range []struct {
		name  string
		edits func(*core.Executable) error
	}{
		{"identity", nil},
		{"instrumented", func(e *core.Executable) error { _, err := qpt.Instrument(e, qpt.Full); return err }},
		{"counted", countEveryInst},
	} {
		ed, err := edit(p.File, mode.edits)
		if err != nil {
			vs = append(vs, violate("edited", "%s edit failed: %v", mode.name, err))
			continue
		}
		res := runOnce(ed, maxSteps*8, sim.EngineChained, dec)
		if res.err != nil {
			vs = append(vs, violate("edited", "%s build fails to run: %v", mode.name, res.err))
			continue
		}
		if res.cpu == nil || !res.cpu.Halted {
			vs = append(vs, violate("edited", "%s build did not halt", mode.name))
			continue
		}
		if res.cpu.ExitCode != orig.cpu.ExitCode {
			vs = append(vs, violate("edited",
				"%s build exits %d, original exits %d", mode.name, res.cpu.ExitCode, orig.cpu.ExitCode))
		}
		if !bytes.Equal(res.out, orig.out) {
			vs = append(vs, violate("edited",
				"%s build wrote %q, original wrote %q", mode.name, res.out, orig.out))
		}
	}
	return vs
}

// CheckAll runs every program-dependent oracle.
func CheckAll(p *Program, maxSteps uint64) []Violation {
	vs := CheckRoundTripWords(p)
	vs = append(vs, CheckLockstep(p, maxSteps)...)
	vs = append(vs, CheckEdited(p, maxSteps)...)
	return vs
}
