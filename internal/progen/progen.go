// Package progen is the module's program generator.  It
// deterministically generates synthetic SPARC and MIPS programs that
// exhibit the code idioms the paper's measurements depend on (§3.1,
// §3.3): conditional and annulled branches with delay slots, bounded
// loops, call DAGs, gcc-style switch lowering through dispatch tables
// embedded in the text segment, SunPro-style pop-frame-and-jump
// continuation transfers (the paper's only source of unanalyzable
// indirect jumps), register-window routines, multiple-entry routines,
// hidden (symbol-less) code, data tables with routine-indistinguishable
// symbols, and debug/duplicate labels.  Every generated program
// terminates deterministically, so original and edited executions can
// be compared exactly, and records where its text holds data.
//
// The SPARC idioms live in one Emitter (sparc.go) that progen's
// personalities and internal/fuzz's feature toggles both drive; the
// MIPS generator (mips.go) emits words through internal/mips's
// encoders.  Every generator finishes through one image builder
// (image.go).
package progen

import (
	"fmt"
	"math/rand"

	"eel/internal/binfile"
)

// Personality selects the compiler style whose idioms the program
// imitates (the paper measured gcc/SunOS vs SunPro/Solaris).
type Personality int

// Personalities.
const (
	// GCC emits analyzable dispatch-table switches and ordinary
	// returns — the paper found zero unanalyzable indirect jumps in
	// this configuration.
	GCC Personality = iota
	// SunPro additionally emits pop-frame-and-jump continuation
	// transfers, reproducing the 138 unanalyzable jumps the paper
	// traced to that idiom.
	SunPro
)

// Config parameterizes generation.
type Config struct {
	Seed     int64
	Routines int
	// ISA selects the target machine: "" or "sparc" for the SPARC
	// generator (Personality applies), "mips" for the MIPS word-level
	// generator (see mips.go).
	ISA         string
	Personality Personality
	// SwitchFrac is the fraction of routines containing a
	// dispatch-table switch.
	SwitchFrac float64
	// ContFrac (SunPro only) is the fraction of routines ending in
	// a continuation jump.
	ContFrac float64
	// WindowFrac is the fraction of routines using register
	// windows (save/restore).
	WindowFrac float64
	// DataTables embeds data blobs in the text segment with
	// routine-indistinguishable symbols.
	DataTables bool
	// MultiEntry gives some routines a second, directly-called
	// entry point (Fortran ENTRY).
	MultiEntry bool
	// HiddenFrac omits symbols for a fraction of routines.
	HiddenFrac float64
	// DebugLabels sprinkles temporary/debugging labels.
	DebugLabels bool
	// Strip removes the symbol table entirely.
	Strip bool
	// BodyOps scales routine body length.
	BodyOps int
	// MemHeavy biases generation toward loads and stores (for the
	// Active Memory experiment's workloads).
	MemHeavy bool
	// CallHeavy biases generation toward deep call DAGs with register
	// windows on every non-tail routine — heavy cross-routine control
	// flow and window pressure (the routine tier's callheavy
	// benchmark flavour).
	CallHeavy bool
	// HotLoop, when positive, adds a counted loop to main that calls
	// the DAG roots that many times — a loop-heavy workload whose
	// dynamic execution is dominated by repeated paths across routine
	// boundaries (the emulator's block-chaining and trace-extension
	// benchmarks measure on it).  The trip count lives in data memory
	// because flat callees clobber main's locals.
	HotLoop int
	// SelfMod adds a routine that stores into its own text (the word
	// is rewritten unchanged, so behaviour is identical on every
	// engine and layout) and a counted loop in main that calls it
	// repeatedly — each call fires the emulator's write watch, so the
	// JIT's promote/install/invalidate/deopt cycle runs over and over.
	SelfMod bool
	// Base is the text load address.
	Base uint32
}

// DefaultConfig returns a medium-sized gcc-personality program.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		Routines:    40,
		Personality: GCC,
		SwitchFrac:  0.25,
		ContFrac:    0.15,
		WindowFrac:  0.2,
		DataTables:  true,
		MultiEntry:  true,
		HiddenFrac:  0.1,
		DebugLabels: true,
		BodyOps:     12,
		Base:        0x10000,
	}
}

// Generate builds a program per cfg, dispatching on cfg.ISA.
func Generate(cfg Config) (*Program, error) {
	if cfg.Routines < 1 {
		return nil, fmt.Errorf("progen: need at least one routine")
	}
	if cfg.Base == 0 {
		cfg.Base = 0x10000
	}
	if cfg.BodyOps == 0 {
		cfg.BodyOps = 12
	}
	gen, ok := generators[cfg.ISA]
	if !ok {
		return nil, fmt.Errorf("progen: no generator personality for ISA %q", cfg.ISA)
	}
	return gen(cfg)
}

// generators maps each machine name Generate covers to its generator.
var generators = map[string]func(Config) (*Program, error){
	"": generateSPARC, "sparc": generateSPARC, "mips": generateMIPS, "mips32e": generateMIPS,
}

// Covers reports whether Generate has a generator for the named
// machine.
func Covers(isa string) bool {
	_, ok := generators[isa]
	return ok
}

// MustGenerate panics on error (tests and benchmarks).
func MustGenerate(cfg Config) *Program {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// sparcMenu is progen's SPARC operand menu.
var sparcMenu = Menu{
	Ops:      []string{"add", "sub", "xor", "and", "or", "sll", "srl"},
	Conds:    []string{"be", "bne", "bg", "ble", "bl", "bge", "bgu", "bleu"},
	Imm:      func(r *rand.Rand) int { return r.Intn(31) + 1 },
	ShiftImm: func(r *rand.Rand) int { return r.Intn(5) + 1 },
	CmpImm:   func(r *rand.Rand) int { return r.Intn(64) },
}

// hotSlot holds the HotLoop trip counter (clear of the memory, FP,
// and function-pointer slot ranges); smSlot holds the SelfMod loop's.
const (
	hotSlot = DataBase + 0x7f0
	smSlot  = DataBase + 0x7ec
)

// generateSPARC is progen's SPARC policy: one random stream for the
// whole program, the personality's fractions, and the workload
// flavours, written through the shared emitter.
func generateSPARC(cfg Config) (*Program, error) {
	e := NewEmitter(".X", sparcMenu, cfg.Routines)
	e.Rng = rand.New(rand.NewSource(cfg.Seed))
	for i := range e.Routines {
		r := &e.Routines[i]
		if cfg.Personality == SunPro && i+1 < cfg.Routines && e.Rng.Float64() < cfg.ContFrac {
			// Tail-call a later routine through a data-segment
			// function pointer (the paper's unanalyzable idiom).
			r.TailTarget = i + 1 + e.Rng.Intn(cfg.Routines-i-1)
		}
		isTail := r.TailTarget != 0
		if i+1 < cfg.Routines && !isTail && e.Rng.Float64() < 0.5 {
			// Non-leaf: a flat routine that calls would clobber its
			// own return address in %o7, so it uses windows.
			r.MayCall = true
			r.Win = true
		} else if e.Rng.Float64() < cfg.WindowFrac && !isTail {
			r.Win = true
		}
		if cfg.CallHeavy && i+1 < cfg.Routines && !isTail {
			// Every non-tail routine keeps a frame and may call
			// deeper.  Applied after the draws above so the
			// CallHeavy=false draw sequence is unchanged.
			r.MayCall = true
			r.Win = true
		}
		// Second entry points skip prologue code, so they are
		// incompatible with register windows (save would be skipped)
		// and tail epilogues.
		if cfg.MultiEntry && !r.Win && !isTail && e.Rng.Float64() < 0.15 {
			r.Entry2 = true
		}
		r.Hidden = e.Rng.Float64() < cfg.HiddenFrac
	}

	roots := e.Main(4, 20)
	if cfg.HotLoop > 0 {
		countedLoop(e, "hot", hotSlot, cfg.HotLoop, func() { e.CallRoots(roots) })
	}
	if cfg.SelfMod {
		// Every call re-heats selfmod from zero (its text write
		// invalidates the JIT's caches), so a low-threshold routine
		// tier promotes, installs, and deopts once per few iterations.
		countedLoop(e, "smloop", smSlot, 24, func() {
			e.L("\tcall selfmod")
			e.L("\tnop")
		})
	}
	e.Exit()
	for i := 0; i < cfg.Routines; i++ {
		e.Enter(i)
		if cfg.DebugLabels && e.Rng.Intn(3) == 0 {
			dbg := e.Fresh("dbg")
			e.L("%s:", dbg)
			e.symbol(dbg, binfile.SymDebug, false)
		}
		e.Body(i, cfg.BodyOps, func() { sparcOp(e, cfg, i) })
		if cfg.DataTables && e.Rng.Float64() < 0.2 {
			e.DataBlob(2 + e.Rng.Intn(6))
		}
	}
	if cfg.SelfMod {
		emitSelfMod(e)
	}
	p, err := e.Finish(cfg.Base, cfg.Strip)
	if err != nil {
		return nil, fmt.Errorf("progen: %w", err)
	}
	return p, nil
}

// sparcOp emits one body operation of routine idx.
func sparcOp(e *Emitter, cfg Config, idx int) {
	kind := e.Rng.Intn(9)
	if cfg.CallHeavy && (kind == 0 || kind == 6) {
		kind = 7 // bias bodies toward calls, same draw count
	}
	switch kind {
	case 0, 1, 2:
		e.Arith()
	case 3:
		e.Loop()
	case 4:
		e.AnnulledLoop()
	case 5:
		e.IfThen()
	case 6:
		if e.Rng.Float64() < cfg.SwitchFrac*2 {
			e.Switch()
		} else {
			e.Arith()
		}
	case 7:
		// Call a later routine (the DAG guarantees termination).
		// Continuation routines make no calls: their return protocol
		// lives in %g1, which any callee chain might clobber.
		if lo := idx + 1; lo < cfg.Routines && e.Routines[idx].MayCall {
			e.Call(lo + e.Rng.Intn(cfg.Routines-lo))
		} else {
			e.Arith()
		}
	case 8:
		if e.Rng.Intn(4) == 0 {
			e.FPOp(idx, "fadds")
		} else {
			e.MemOp(idx, 0)
		}
	}
	if cfg.MemHeavy && e.Rng.Intn(2) == 0 {
		e.MemOp(idx, 0)
	}
}

// countedLoop emits a loop in main running body n times.  Its trip
// counter lives in the data word at slot, because flat callees
// clobber main's locals.
func countedLoop(e *Emitter, name string, slot uint32, n int, body func()) {
	top := e.Fresh(name)
	e.L("\tset %d, %%l1", slot)
	e.L("\tset %d, %%l0", n)
	e.L("\tst %%l0, [%%l1]")
	e.L("%s:", top)
	body()
	e.L("\tset %d, %%l1", slot)
	e.L("\tld [%%l1], %%l0")
	e.L("\tsubcc %%l0, 1, %%l0")
	e.L("\tst %%l0, [%%l1]")
	e.L("\tbne %s", top)
	e.L("\tnop")
}

// emitSelfMod generates the self-modifying routine: it loads the word
// at its own .Xsmpatch label and stores it back.  The store is a
// value-level no-op — execution is bit-identical on every engine and
// under code-moving instrumentation — but the emulator's write watch
// sees a text write and invalidates translated code, which is exactly
// the deopt storm the flight recorder exists to capture.
func emitSelfMod(e *Emitter) {
	e.L("selfmod:")
	e.L("\tset .Xsmpatch, %%o3")
	e.L("\tld [%%o3], %%o4")
	e.L("\tst %%o4, [%%o3]")
	e.L(".Xsmpatch:")
	e.L("\tadd %%o0, 1, %%o0")
	e.L("\tretl")
	e.L("\tnop")
	e.symbol("selfmod", binfile.SymFunc, true)
}
