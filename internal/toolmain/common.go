package toolmain

import (
	"flag"
	"fmt"

	_ "eel/internal/alpha" // register the architectures -isa can name
	_ "eel/internal/aout"
	_ "eel/internal/elf32"
	_ "eel/internal/mips"

	"eel/internal/binfile"
	"eel/internal/core"
	"eel/internal/machine"
	"eel/internal/obs"
	"eel/internal/pipeline"
	"eel/internal/progen"
	"eel/internal/spawn"
)

// Common bundles the flags and lifecycle every EEL command shares:
// the observability flags (obs.Flags: -stats, -metrics, -trace,
// -debug-addr), the analysis worker count (-j), and synthetic-input
// generation (-gen, -gen-routines).  Commands register it on their
// flag set, parse, Start it, and use the accessors instead of
// re-implementing the wiring.
type Common struct {
	*obs.Flags

	// Jobs is the -j analysis worker count (0 = GOMAXPROCS).
	Jobs int
	// ISA is -isa: the registered architecture generated inputs and
	// emulator runs target ("sparc" by default; the editing pipeline
	// itself is still SPARC-only and tools that edit enforce that).
	ISA string
	// Gen is the -gen progen seed, -1 when absent; GenRoutines is
	// -gen-routines.
	Gen         int64
	GenRoutines int
	// GenSelfMod is -gen-selfmod: make the generated program patch
	// its own text so the routine tier's promote/deopt cycle (and the
	// flight recorder) gets exercised.
	GenSelfMod bool
}

// AddCommon registers the shared flags on fs and returns the struct
// their parsed values land in.
func AddCommon(fs *flag.FlagSet) *Common {
	c := &Common{Flags: obs.AddFlags(fs)}
	fs.IntVar(&c.Jobs, "j", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.StringVar(&c.ISA, "isa", "sparc", "target machine for -gen and execution (sparc, mips, alpha)")
	fs.Int64Var(&c.Gen, "gen", -1, "generate a synthetic input program with this seed")
	fs.IntVar(&c.GenRoutines, "gen-routines", 40, "routines in the generated program")
	fs.BoolVar(&c.GenSelfMod, "gen-selfmod", false, "make the generated program self-modifying (exercises JIT deopt)")
	return c
}

// OpenInput resolves the command's input program: a generated progen
// workload when -gen was given, otherwise the named file.  The
// returned name suits deriving output paths ("genN" for generated
// inputs without an explicit name).
func (c *Common) OpenInput(arg string) (*binfile.File, string, error) {
	switch {
	case c.Gen >= 0:
		cfg := progen.DefaultConfig(c.Gen)
		cfg.Routines = c.GenRoutines
		cfg.SelfMod = c.GenSelfMod
		if c.ISA != "sparc" {
			cfg.ISA = c.ISA
		}
		p, err := progen.Generate(cfg)
		if err != nil {
			return nil, "", err
		}
		name := arg
		if name == "" {
			name = fmt.Sprintf("gen%d", c.Gen)
		}
		return p.File, name, nil
	case arg != "":
		f, err := binfile.ReadFile(arg)
		return f, arg, err
	}
	return nil, "", fmt.Errorf("need an input executable or -gen seed")
}

// Arch resolves -isa against the architecture registry.
func (c *Common) Arch() (*machine.ArchInfo, error) {
	info, ok := machine.ArchByName(c.ISA)
	if !ok {
		return nil, fmt.Errorf("unknown -isa %q (registered: %v)", c.ISA, machine.ArchNames())
	}
	return info, nil
}

// Decoder returns a decoder for the selected machine, for tools that
// execute or disassemble per -isa.
func (c *Common) Decoder() (*spawn.TableDecoder, error) {
	info, err := c.Arch()
	if err != nil {
		return nil, err
	}
	return info.NewDecoder().(*spawn.TableDecoder), nil
}

// RequireSPARC rejects any -isa other than SPARC, for tools built on
// the (still SPARC-only) analysis and editing pipeline.
func (c *Common) RequireSPARC() error {
	info, err := c.Arch()
	if err != nil {
		return err
	}
	if info.Name != "sparc" {
		return fmt.Errorf("binary analysis and editing support sparc only (got -isa=%s)", c.ISA)
	}
	return nil
}

// Load wraps a parsed container as an analyzable executable (symbol
// refinement included).
func Load(f *binfile.File) (*core.Executable, error) {
	e, err := core.NewExecutable(f)
	if err != nil {
		return nil, err
	}
	if err := e.ReadContents(); err != nil {
		return nil, err
	}
	return e, nil
}

// Analyze runs the concurrent pipeline with the -j worker count wired
// in (unless opts already names one) and prints the run's statistics
// when -stats asked for them.
func (c *Common) Analyze(e *core.Executable, opts pipeline.Options) (*pipeline.Result, error) {
	if err := c.RequireSPARC(); err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = c.Jobs
	}
	res, err := pipeline.AnalyzeAll(e, opts)
	if err != nil {
		return nil, err
	}
	if c.Stats {
		fmt.Println(res.Stats)
		decodes, derived := e.Dec.SharingStats()
		fmt.Printf("  decoder: %d decodes, %d derived by the shared memo\n", decodes, derived)
	}
	return res, nil
}
