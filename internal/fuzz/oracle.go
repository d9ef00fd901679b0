package fuzz

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"eel/internal/binfile"
	"eel/internal/core"
	"eel/internal/machine"
	_ "eel/internal/mips" // register the MIPS architecture
	"eel/internal/qpt"
	"eel/internal/sim"
	"eel/internal/sparc"
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

// dec is the shared SPARC decoder the deterministic sweep uses
// (interning makes it cheap and safe to share).
var dec = sparc.NewDecoder()

// decoders caches one shared decoder per ISA for the per-program
// oracles.
var decoders sync.Map // isa name -> *spawn.TableDecoder

// decoderFor returns the shared decoder for an ISA name.
func decoderFor(isa string) *spawn.TableDecoder {
	if isSPARC(isa) {
		return dec
	}
	if d, ok := decoders.Load(isa); ok {
		return d.(*spawn.TableDecoder)
	}
	info, ok := machine.ArchByName(isa)
	if !ok {
		panic(fmt.Sprintf("fuzz: no architecture registered for %q", isa))
	}
	d := info.NewDecoder().(*spawn.TableDecoder)
	decoders.Store(isa, d)
	return d
}

// archFor returns the registered architecture record for an ISA name.
func archFor(isa string) *machine.ArchInfo {
	if isSPARC(isa) {
		isa = "sparc"
	}
	info, ok := machine.ArchByName(isa)
	if !ok {
		panic(fmt.Sprintf("fuzz: no architecture registered for %q", isa))
	}
	return info
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

func signExt(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

func fieldOf(inst *machine.Inst, name string) (uint32, bool) {
	return inst.Field(name)
}

// CheckRoundTripSweep checks the encode→decode direction at the
// encoding boundaries: simm13 at ±4096, branch disp22 and call disp30
// at their signed extremes, sethi's imm22 high bits.  In-range
// operands must be recovered exactly (including sign); out-of-range
// operands must be rejected, never silently truncated.  The sweep is
// deterministic, so it runs once per fuzzing session.
func CheckRoundTripSweep() []Violation {
	var vs []Violation

	// simm13: immediate-form ALU ops and memory ops.
	for _, name := range []string{"add", "sub", "xor", "and", "ld", "st", "jmpl"} {
		for _, imm := range []int32{-4096, -4095, -1024, -1, 0, 1, 1023, 4094, 4095} {
			w, err := sparc.EncodeOp3Imm(name, sparc.RegO0, sparc.RegO1, imm)
			if err != nil {
				vs = append(vs, violate("sweep", "%s simm13 %d: encode failed: %v", name, imm, err))
				continue
			}
			inst := dec.Decode(w)
			if !inst.Valid() {
				vs = append(vs, violate("sweep", "%s simm13 %d: word %08x does not decode", name, imm, w))
				continue
			}
			raw, ok := fieldOf(inst, "simm13")
			if !ok {
				vs = append(vs, violate("sweep", "%s simm13 %d: decoded %s has no simm13 field", name, imm, inst.Name()))
				continue
			}
			if got := signExt(raw, 13); got != imm {
				vs = append(vs, violate("sweep",
					"%s: simm13 %d encoded to %08x, decoded back as %d", name, imm, w, got))
			}
		}
		for _, imm := range []int32{-4097, 4096, 8192, -1 << 13, 1 << 13} {
			if w, err := sparc.EncodeOp3Imm(name, sparc.RegO0, sparc.RegO1, imm); err == nil {
				vs = append(vs, violate("sweep",
					"%s: out-of-range simm13 %d encoded silently to %08x", name, imm, w))
			}
		}
	}

	// Branch disp22, including the annul bit.
	const pc = 0x40000000
	for _, name := range []string{"ba", "bn", "bne", "be", "bgu", "bcs", "bvs"} {
		for _, d := range []int32{-(1 << 21), -1024, -1, 0, 1, 1024, 1<<21 - 1} {
			for _, annul := range []bool{false, true} {
				w, err := sparc.EncodeBranch(name, annul, d)
				if err != nil {
					vs = append(vs, violate("sweep", "%s disp22 %d: encode failed: %v", name, d, err))
					continue
				}
				inst := dec.Decode(w)
				if !inst.Valid() || inst.AnnulBit() != annul {
					vs = append(vs, violate("sweep",
						"%s disp22 %d annul=%v: decode mismatch (word %08x)", name, d, annul, w))
					continue
				}
				if name == "bn" {
					// "branch never" is decoded as a non-transfer, so
					// it has no static target; check the raw field.
					raw, ok := fieldOf(inst, "disp22")
					if !ok || signExt(raw, 22) != d {
						vs = append(vs, violate("sweep",
							"bn: disp22 %d decoded back as %d (word %08x)", d, signExt(raw, 22), w))
					}
					continue
				}
				tgt, ok := inst.StaticTarget(pc)
				want := uint32(int64(pc) + 4*int64(d))
				if !ok || tgt != want {
					vs = append(vs, violate("sweep",
						"%s: disp22 %d target %#x, want %#x (word %08x)", name, d, tgt, want, w))
				}
			}
		}
		for _, d := range []int32{1 << 21, -(1 << 21) - 1, 1 << 24} {
			if w, err := sparc.EncodeBranch(name, false, d); err == nil {
				vs = append(vs, violate("sweep",
					"%s: out-of-range disp22 %d encoded silently to %08x", name, d, w))
			}
		}
	}

	// Call disp30.
	for _, d := range []int32{-(1 << 29), -1, 0, 1, 1<<29 - 1} {
		w, err := sparc.EncodeCall(d)
		if err != nil {
			vs = append(vs, violate("sweep", "call disp30 %d: encode failed: %v", d, err))
			continue
		}
		inst := dec.Decode(w)
		tgt, ok := inst.StaticTarget(pc)
		want := uint32(int64(pc) + 4*int64(d))
		if !inst.Valid() || !ok || tgt != want {
			vs = append(vs, violate("sweep",
				"call: disp30 %d target %#x, want %#x (word %08x)", d, tgt, want, w))
		}
	}
	for _, d := range []int32{1 << 29, -(1 << 29) - 1} {
		if w, err := sparc.EncodeCall(d); err == nil {
			vs = append(vs, violate("sweep",
				"call: out-of-range disp30 %d encoded silently to %08x", d, w))
		}
	}

	// sethi imm22: the upper 22 bits survive, including the sign bit
	// and the %hi/%lo reconstruction identity.
	for _, v := range []uint32{0, 1 << 10, 0x3ff << 10, 0x7fffffff, 0x80000000, 0xfffffc00, 0xffffffff, 0xdeadbeef} {
		w, err := sparc.EncodeSethi(sparc.RegO0, v)
		if err != nil {
			vs = append(vs, violate("sweep", "sethi %#x: encode failed: %v", v, err))
			continue
		}
		inst := dec.Decode(w)
		raw, ok := fieldOf(inst, "imm22")
		if !inst.Valid() || !ok || raw != v>>10 {
			vs = append(vs, violate("sweep",
				"sethi %#x: imm22 decoded as %#x, want %#x (word %08x)", v, raw, v>>10, w))
		}
		if got := sparc.Hi(v)<<10 | sparc.Lo(v); got != v {
			vs = append(vs, violate("sweep", "Hi/Lo of %#x reassemble to %#x", v, got))
		}
	}

	// Trap numbers.
	for _, imm := range []int32{-4096, 0, 127, 4095} {
		w, err := sparc.EncodeTa(imm)
		if err != nil {
			vs = append(vs, violate("sweep", "ta %d: encode failed: %v", imm, err))
			continue
		}
		inst := dec.Decode(w)
		raw, ok := fieldOf(inst, "simm13")
		if !inst.Valid() || !ok || signExt(raw, 13) != imm {
			vs = append(vs, violate("sweep", "ta %d: decoded back as %d", imm, signExt(raw, 13)))
		}
	}
	for _, imm := range []int32{-4097, 4096} {
		if w, err := sparc.EncodeTa(imm); err == nil {
			vs = append(vs, violate("sweep", "ta: out-of-range %d encoded silently to %08x", imm, w))
		}
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
// the translation-cache engine, the chained/trace engine, and (where
// the architecture registration enables it) the whole-routine tier —
// and requires bit-identical outcomes against the interpreter: same
// error (if any), same output bytes, same architected state, same
// memory image.
func CheckLockstep(p *Program, maxSteps uint64) []Violation {
	d := p.decoder()
	interp := runOnce(p.File, maxSteps, sim.EngineInterp, d)
	var vs []Violation
	engines := []sim.Engine{sim.EngineTranslated, sim.EngineChained}
	if archFor(p.Cfg.ISA).RoutineTier {
		engines = append(engines, sim.EngineRoutine)
	}
	for _, eng := range engines {
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

// edit rewrites prog.File through internal/core, with instrument
// optionally applying full qpt instrumentation first.  Panics in the
// editing pipeline are returned as errors.
func edit(f *binfile.File, instrument bool) (edited *binfile.File, err error) {
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
	if instrument {
		if _, err := qpt.Instrument(e, qpt.Full); err != nil {
			return nil, err
		}
	}
	return e.BuildEdited()
}

// CheckEdited verifies that editing preserves behavior: the original,
// an identity relayout (BuildEdited with no edits), and a fully
// qpt-instrumented build must all exit with the same code and write
// the same output.
func CheckEdited(p *Program, maxSteps uint64) []Violation {
	if !isSPARC(p.Cfg.ISA) {
		// The editing pipeline (internal/core, internal/qpt) analyzes
		// SPARC executables only; the oracle does not apply elsewhere.
		return nil
	}
	orig := runOnce(p.File, maxSteps, sim.EngineChained, dec)
	if orig.err != nil {
		return []Violation{violate("edited", "original program fails to run: %v", orig.err)}
	}
	if orig.cpu == nil || !orig.cpu.Halted {
		return []Violation{violate("edited", "original program did not halt")}
	}
	var vs []Violation
	for _, mode := range []struct {
		name       string
		instrument bool
	}{{"identity", false}, {"instrumented", true}} {
		ed, err := edit(p.File, mode.instrument)
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
