// Package fuzz is EEL's differential-fuzzing subsystem: a second
// program policy over internal/progen's emitter, three differential
// oracles, and a shrinker.  The policy draws randomized, seeded SPARC
// V8 programs with orthogonal feature toggles (delayed and annulled
// branches, register windows, traps, indirect jumps, edge-valued
// immediates, ...) and, for other machines, delegates to progen's
// personalities.  The oracles check every generated program:
//
//   - round-trip: decoding any text word and re-encoding it through
//     the canonical encoders reproduces the same operands
//     (internal/sparc must not lose or resign immediate bits);
//   - lockstep: the single-step interpreter and the translation-cache
//     engine of internal/sim finish in bit-identical architected
//     state;
//   - edited: an executable rewritten by internal/core (both an
//     identity relayout and full qpt instrumentation) behaves exactly
//     like the original.
//
// Failures shrink to a minimal configuration and generalize across
// seeds, so a reported violation is a small, reproducible program
// plus the feature set required to trigger it.  cmd/eelfuzz is the
// command-line driver.
package fuzz

import (
	"fmt"
	"math/rand"
	"strings"

	"eel/internal/progen"
)

// Config parameterizes one generated program.  Every field is
// deterministic input: the same Config always generates the same
// program.  The boolean toggles gate generator features so the
// shrinker can turn them off one at a time.
type Config struct {
	Seed     int64
	Routines int
	BodyOps  int

	// ISA selects the target machine: "" or "sparc" runs this
	// package's policy over progen's SPARC emitter; "mips" delegates
	// to internal/progen's MIPS personality.  SPARC-only toggles (Annulled, Windows,
	// Continuations, Indirect, FP, MulDiv, MultiEntry, EdgeImms) are
	// ignored for other machines.
	ISA string

	// Annulled emits annulled branches: bne,a loops, ba,a skips, and
	// the bn/bn,a never-taken forms.
	Annulled bool
	// Windows emits register-window routines (save/restore); without
	// it every routine is a leaf.
	Windows bool
	// Calls lets windowed routines call later routines (a DAG, so
	// termination is preserved).
	Calls bool
	// Traps emits mid-routine write(2) system calls whose output the
	// oracles compare.
	Traps bool
	// Indirect emits gcc-style dispatch-table switches (register
	// indirect jumps through text-embedded tables).
	Indirect bool
	// Continuations emits SunPro-style pop-frame-and-jump tail
	// transfers through writable function-pointer slots.
	Continuations bool
	// EdgeImms biases immediates toward encoding boundaries (±4095,
	// ±4096, 0x3ff/0x400, sign bits).
	EdgeImms bool
	// FP emits single-precision floating-point conversions and
	// arithmetic on small integers.
	FP bool
	// Mem emits the full load/store menu: byte/half/word, signed
	// loads, ldd/std pairs, swap and ldstub.
	Mem bool
	// MulDiv emits umul/smul and guarded udiv/sdiv plus %y traffic.
	MulDiv bool
	// MultiEntry gives some flat routines a second entry point.
	MultiEntry bool
	// Hidden omits symbols for some routines.
	Hidden bool
	// DataBlobs embeds data tables in the text segment.
	DataBlobs bool
	// Strip removes the symbol table entirely.
	Strip bool
}

// DefaultConfig returns a medium-sized configuration with every
// feature enabled.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		Routines:      10,
		BodyOps:       10,
		Annulled:      true,
		Windows:       true,
		Calls:         true,
		Traps:         true,
		Indirect:      true,
		Continuations: true,
		EdgeImms:      true,
		FP:            true,
		Mem:           true,
		MulDiv:        true,
		MultiEntry:    true,
		Hidden:        true,
		DataBlobs:     true,
	}
}

// RandConfig derives a randomized configuration for iteration i of a
// run seeded with master.  Sizes and toggles vary so the corpus
// explores feature interactions, not just the everything-on point.
func RandConfig(master int64, i int) Config {
	rng := rand.New(rand.NewSource(master ^ int64(i)*-0x61C8864680B583EB))
	c := DefaultConfig(master + int64(i))
	c.Routines = 3 + rng.Intn(12)
	c.BodyOps = 4 + rng.Intn(10)
	flip := func(p float64) bool { return rng.Float64() < p }
	// Each feature stays on most of the time; occasionally a subset
	// is disabled so failures in feature interactions are reachable.
	c.Annulled = flip(0.9)
	c.Windows = flip(0.9)
	c.Calls = flip(0.9)
	c.Traps = flip(0.8)
	c.Indirect = flip(0.8)
	c.Continuations = flip(0.7)
	c.EdgeImms = flip(0.9)
	c.FP = flip(0.7)
	c.Mem = flip(0.9)
	c.MulDiv = flip(0.8)
	c.MultiEntry = flip(0.6)
	c.Hidden = flip(0.6)
	c.DataBlobs = flip(0.6)
	c.Strip = flip(0.1)
	return c
}

// toggles lists the feature toggles in the order String prints them;
// Shrink and Generalize clear them one at a time.
var toggles = []struct {
	name string
	flag func(c *Config) *bool
}{
	{"annulled", func(c *Config) *bool { return &c.Annulled }},
	{"windows", func(c *Config) *bool { return &c.Windows }},
	{"calls", func(c *Config) *bool { return &c.Calls }},
	{"traps", func(c *Config) *bool { return &c.Traps }},
	{"indirect", func(c *Config) *bool { return &c.Indirect }},
	{"cont", func(c *Config) *bool { return &c.Continuations }},
	{"edgeimms", func(c *Config) *bool { return &c.EdgeImms }},
	{"fp", func(c *Config) *bool { return &c.FP }},
	{"mem", func(c *Config) *bool { return &c.Mem }},
	{"muldiv", func(c *Config) *bool { return &c.MulDiv }},
	{"multientry", func(c *Config) *bool { return &c.MultiEntry }},
	{"hidden", func(c *Config) *bool { return &c.Hidden }},
	{"datablobs", func(c *Config) *bool { return &c.DataBlobs }},
	{"strip", func(c *Config) *bool { return &c.Strip }},
}

// String renders the config as a reproducible one-liner.
func (c Config) String() string {
	var on []string
	for _, t := range toggles {
		if *t.flag(&c) {
			on = append(on, t.name)
		}
	}
	isa := ""
	if !isSPARC(c.ISA) {
		isa = fmt.Sprintf("isa=%s ", c.ISA)
	}
	return fmt.Sprintf("%sseed=%d routines=%d bodyops=%d features=%s",
		isa, c.Seed, c.Routines, c.BodyOps, strings.Join(on, ","))
}

// Program is one generated program and the config that regenerates it.
type Program struct {
	progen.Program
	Cfg Config
}

const (
	textBase = 0x10000
	// trapBufBase holds per-routine spill+write buffers (8 bytes
	// each, 8-aligned).
	trapBufBase = progen.DataBase + 0xa00
)

// gen is the fuzz policy driving progen's SPARC emitter.
type gen struct {
	*progen.Emitter
	cfg Config
}

// routineRNG returns the dedicated random stream for routine idx.
// Each routine draws only from its own stream, so shrinking the
// routine count leaves the surviving routines identical.
func (g *gen) routineRNG(idx int) *rand.Rand {
	return rand.New(rand.NewSource(g.cfg.Seed ^ (int64(idx)+1)*-0x61C8864680B583EB))
}

// isSPARC reports whether isa names the default SPARC machine.
func isSPARC(isa string) bool { return isa == "" || isa == "sparc" }

// edgeImms are the immediate values at simm13 and %lo boundaries.
var edgeImms = []int{-4096, -4095, -1024, -1, 0, 1, 7, 1023, 1024, 4095}

// menu returns the policy's operand menus: the full arithmetic and
// condition sets, with immediates biased toward encoding boundaries
// under EdgeImms.
func (c Config) menu() progen.Menu {
	imm := func(r *rand.Rand) int {
		if c.EdgeImms && r.Intn(2) == 0 {
			return edgeImms[r.Intn(len(edgeImms))]
		}
		return r.Intn(31) + 1
	}
	return progen.Menu{
		Ops: []string{"add", "sub", "xor", "and", "or", "andn", "orn", "xnor",
			"addx", "subx", "sll", "srl", "sra"},
		Conds: []string{"be", "bne", "bg", "ble", "bl", "bge", "bgu", "bleu",
			"bcc", "bcs", "bpos", "bneg", "bvc", "bvs"},
		Imm: imm,
		// Shift semantics mask the count; edge values 31/32 are
		// interesting, huge ones are legal simm13 too.
		ShiftImm: func(r *rand.Rand) int { return []int{0, 1, 5, 31, 32, 63}[r.Intn(6)] },
		CmpImm:   imm,
	}
}

// Generate builds the program for cfg, dispatching on cfg.ISA.
func Generate(cfg Config) (*Program, error) {
	if cfg.Routines < 1 {
		return nil, fmt.Errorf("fuzz: need at least one routine")
	}
	if cfg.BodyOps < 1 {
		cfg.BodyOps = 1
	}
	if !isSPARC(cfg.ISA) {
		return generateOther(cfg)
	}
	g := &gen{Emitter: progen.NewEmitter(".F", cfg.menu(), cfg.Routines), cfg: cfg}
	for i := range g.Routines {
		rng := g.routineRNG(i)
		r := &g.Routines[i]
		// Draw every trait unconditionally so disabling a feature
		// toggle perturbs the rest of the routine as little as
		// possible (better shrinking).
		dTail, dCall, dWin, dEntry2, dHidden :=
			rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
		if cfg.Continuations && i+1 < cfg.Routines && dTail < 0.2 {
			r.TailTarget = i + 1 + rng.Intn(cfg.Routines-i-1)
		}
		isTail := r.TailTarget != 0
		// Non-leaf routines must keep a frame: a flat routine that
		// calls would clobber its own return address in %o7.
		if cfg.Calls && cfg.Windows && i+1 < cfg.Routines && !isTail && dCall < 0.5 {
			r.MayCall = true
			r.Win = true
		} else if cfg.Windows && !isTail && dWin < 0.3 {
			r.Win = true
		}
		r.Entry2 = cfg.MultiEntry && !r.Win && !isTail && dEntry2 < 0.2
		r.Hidden = cfg.Hidden && dHidden < 0.15
	}
	g.Rng = rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D))
	g.Main(3, 8)
	g.Exit()
	for i := 0; i < cfg.Routines; i++ {
		g.Rng = g.routineRNG(i)
		g.Enter(i)
		// Bound the call DAG's dynamic fan-out: routines near the end
		// may call twice (their subtrees are shallow); earlier ones
		// once.
		callsLeft := 1
		if cfg.Routines-i <= 4 {
			callsLeft = 2
		}
		g.Body(i, cfg.BodyOps, func() { g.op(i, &callsLeft) })
		if cfg.DataBlobs && g.Rng.Intn(4) == 0 {
			g.DataBlob(2 + g.Rng.Intn(5))
		}
	}
	p, err := g.Finish(textBase, cfg.Strip)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s: %w", cfg, err)
	}
	return &Program{Program: *p, Cfg: cfg}, nil
}

// generateOther delegates non-SPARC generation to internal/progen's
// per-ISA personalities, mapping the fuzz toggles that have
// machine-independent meaning (sizes, Hidden, DataBlobs, Mem, Strip)
// and ignoring the SPARC-only ones.
func generateOther(cfg Config) (*Program, error) {
	pcfg := progen.Config{
		Seed:       cfg.Seed,
		Routines:   cfg.Routines,
		BodyOps:    cfg.BodyOps,
		ISA:        cfg.ISA,
		DataTables: cfg.DataBlobs,
		MemHeavy:   cfg.Mem,
		Strip:      cfg.Strip,
		Base:       textBase,
	}
	if cfg.Hidden {
		pcfg.HiddenFrac = 0.15
	}
	p, err := progen.Generate(pcfg)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s generator (%s): %w", cfg.ISA, cfg, err)
	}
	return &Program{Program: *p, Cfg: cfg}, nil
}

// MustGenerate panics on error (tests).
func MustGenerate(cfg Config) *Program {
	p, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// op emits one body operation of routine idx, drawn from the enabled
// features' menu: a draw of a disabled feature is redrawn.
func (g *gen) op(idx int, callsLeft *int) {
	c := g.cfg
	for {
		switch g.Rng.Intn(13) {
		case 0, 1:
			g.Arith()
		case 2:
			g.Loop()
		case 3:
			g.IfThen()
		case 4:
			g.setEdge()
		case 5:
			if !c.Annulled {
				continue
			}
			g.AnnulledLoop()
		case 6:
			if !c.Annulled {
				continue
			}
			g.annulledSkips()
		case 7:
			if !c.Indirect {
				continue
			}
			g.Switch()
		case 8:
			if !c.Mem {
				continue
			}
			g.MemOp(idx, g.Rng.Intn(6))
		case 9:
			if !c.FP {
				continue
			}
			g.FPOp(idx, []string{"fadds", "fsubs", "fmuls"}[g.Rng.Intn(3)])
		case 10:
			if !c.MulDiv {
				continue
			}
			g.mulDiv()
		case 11:
			if !c.Traps {
				continue
			}
			g.trapWrite(idx)
		default:
			if !g.Routines[idx].MayCall || *callsLeft == 0 {
				continue
			}
			if lo := idx + 1; lo < c.Routines {
				*callsLeft--
				g.Call(lo + g.Rng.Intn(c.Routines-lo))
			} else {
				g.Arith()
			}
		}
		return
	}
}

// setEdge materializes a 32-bit boundary constant and mixes it in.
var edgeConsts = []uint32{0, 1, 0x3ff, 0x400, 0xfff, 0x1000, 0x7fffffff,
	0x80000000, 0xfffffc00, 0xffffffff, 0xdeadbeef}

func (g *gen) setEdge() {
	v := edgeConsts[g.Rng.Intn(len(edgeConsts))]
	if !g.cfg.EdgeImms {
		v = uint32(g.Rng.Intn(4096))
	}
	g.L("\tset %d, %%l4", v)
	g.L("\txor %%o0, %%l4, %%o0")
	g.L("\tsrl %%o0, 1, %%o0")
}

// annulledSkips exercises the unconditional annul forms: ba,a (slot
// never executes), bn (never taken, slot executes), and bn,a (skip
// the next instruction unconditionally).
func (g *gen) annulledSkips() {
	switch g.Rng.Intn(3) {
	case 0:
		skip := g.Fresh("baa")
		g.L("\tba,a %s", skip)
		g.L("\tadd %%o0, %d, %%o0", 1+g.Rng.Intn(63)) // annulled
		g.L("%s:", skip)
	case 1:
		tgt := g.Fresh("bn")
		g.L("\tbn %s", tgt)
		g.L("\tadd %%o0, %d, %%o0", 1+g.Rng.Intn(63)) // executes
		g.L("%s:", tgt)
	default:
		tgt := g.Fresh("bna")
		g.L("\tbn,a %s", tgt)
		g.L("\txor %%o0, %d, %%o0", 1+g.Rng.Intn(63)) // annulled
		g.L("%s:", tgt)
	}
}

// mulDiv exercises the multiply/divide builtins and the %y register.
// Divisors are forced non-zero.
func (g *gen) mulDiv() {
	switch g.Rng.Intn(4) {
	case 0:
		g.L("\tumul %%o0, %d, %%o0", 3+g.Rng.Intn(13))
		g.L("\tsrl %%o0, %d, %%o0", 1+g.Rng.Intn(4))
	case 1:
		g.L("\tsmul %%o0, %d, %%o0", -8+g.Rng.Intn(17))
		g.L("\tsra %%o0, %d, %%o0", 1+g.Rng.Intn(4))
	case 2:
		g.L("\tand %%o0, 7, %%l1")
		g.L("\tor %%l1, 1, %%l1")
		if g.Rng.Intn(2) == 0 {
			g.L("\tudiv %%o0, %%l1, %%o0")
		} else {
			g.L("\tsdiv %%o0, %%l1, %%o0")
		}
	default:
		g.L("\twr %%o0, %%y")
		g.L("\trd %%y, %%l2")
		g.L("\tadd %%o0, %%l2, %%o0")
		g.L("\tsrl %%o0, 1, %%o0")
	}
}

// trapWrite spills the accumulator, issues a 1-byte write(2) system
// call whose payload the oracles compare, and mixes the syscall
// result back in.
func (g *gen) trapWrite(idx int) {
	g.L("\tset %d, %%l1", trapBufBase+uint32(idx%32)*8)
	g.L("\tst %%o0, [%%l1]")
	g.L("\tstb %%o0, [%%l1+4]")
	g.L("\tmov 4, %%g1")
	g.L("\tmov 1, %%o0")
	g.L("\tadd %%l1, 4, %%o1")
	g.L("\tmov 1, %%o2")
	g.L("\tta 0")
	g.L("\tld [%%l1], %%l2")
	g.L("\txor %%l2, %%o0, %%o0")
}
